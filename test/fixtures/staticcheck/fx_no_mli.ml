(* Missing-interface fixture: a module compiled without an .mli, so its
   .cmt has no .cmti beside it. *)

let exported = 42
