(* Slot [k] of domain [d] lives at [(d + 1) * stride + k]: domains are
   [stride] words apart, and slot row 0 is padding so domain 0 stays off
   the line holding the array header and whatever block precedes it. *)

type t = int array

(* 16 words = 128 bytes: two 64-byte lines, so neither a shared line nor
   an adjacent-line prefetch pair spans two domains' slots. *)
let stride = 16
let create ~domains = Array.make ((domains + 2) * stride) 0
let index d k = ((d + 1) * stride) + k

let incr t ~d k =
  let i = index d k in
  t.(i) <- t.(i) + 1

let get t ~d k = t.(index d k)
let set t ~d k v = t.(index d k) <- v

let sum t ~domains k =
  let acc = ref 0 in
  for d = 0 to domains - 1 do
    acc := !acc + get t ~d k
  done;
  !acc
