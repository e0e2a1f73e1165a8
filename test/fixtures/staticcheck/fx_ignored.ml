(* Ignored-result fixture: [ignore] around unit-returning runtime calls,
   one reached through an [open] and one fully qualified, so the rule
   must match resolved paths rather than spellings. The look-alikes
   below (another callee, prose in a string) must stay quiet. *)

open O2_runtime

let discard_lock l = ignore (Api.lock l)
let discard_run e = ignore (O2_runtime.Engine.run e)
let fine ~addr = ignore (Api.read ~addr ~len:8)
let prose = "ignore (Api.lock l)"
