let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)
