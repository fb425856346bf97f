let now () = Unix.gettimeofday ()
