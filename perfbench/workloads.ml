(* The named workloads, in the order a full run takes them. *)
let all =
  [
    ("table1-guided", Table1.run);
    ("cec-mix", Cec_flow.run ~stacked:false);
    ("cec-stacked", Cec_flow.run ~stacked:true);
    ("serve-repeat", Serve_repeat.run);
  ]
