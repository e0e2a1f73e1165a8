val discard_lock : O2_runtime.Spinlock.t -> unit
val discard_run : O2_runtime.Engine.t -> unit
val fine : addr:int -> unit
val prose : string
