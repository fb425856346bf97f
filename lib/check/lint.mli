(** Lint front end: dispatch by artifact kind, parse errors as
    diagnostics.

    This is what the [simgen_cli lint] subcommand calls on files. Files
    are routed by extension; a parse failure becomes a single [P001]
    error diagnostic carrying the file/line location instead of an
    exception, so linting a directory of mixed-quality inputs never
    aborts halfway. In-memory artifacts go straight to their pass:
    {!Net_lint.run}, {!Aig_lint.run}, {!Cnf_lint.run} and
    {!Sem_lint.run}. *)

val tseitin_encoding : Simgen_network.Network.t -> Diagnostic.t list
(** Encode the network into a fresh recording {!Simgen_sat.Tseitin.env}
    and lint the emitted clause stream — an end-to-end audit of the
    encoder itself. *)

val file : string -> Diagnostic.t list
(** Route by extension: [.blif] and [.bench] parse to a network and run
    the network lints; [.aag] parses to an AIG and runs the AIG lints;
    [.cnf] / [.dimacs] parse to clauses and run the CNF lints. Parse
    errors yield a [P001] error diagnostic; an unknown extension or an
    unreadable file yields [P002]. *)
