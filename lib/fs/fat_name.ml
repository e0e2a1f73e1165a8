let bad_chars = "\"*+,/:;<=>?[\\]| "

let valid_char c =
  let code = Char.code c in
  code > 0x20 && code < 0x7F && not (String.contains bad_chars c)

let to_83 name =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  match String.index_opt name '.' with
  | Some 0 -> fail "name starts with a dot: %S" name
  | _ when name = "" -> fail "empty name"
  | idx -> (
      let base, ext =
        match idx with
        | None -> (name, "")
        | Some i ->
            (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))
      in
      if String.contains ext '.' then fail "multiple dots: %S" name
      else if base = "" || String.length base > 8 then
        fail "base part must be 1..8 chars: %S" name
      else if String.length ext > 3 then fail "extension over 3 chars: %S" name
      else
        let up = String.uppercase_ascii in
        let base = up base and ext = up ext in
        match String.for_all valid_char base && String.for_all valid_char ext with
        | false -> fail "invalid character in %S" name
        | true ->
            let pad s n = s ^ String.make (n - String.length s) ' ' in
            Ok (pad base 8 ^ pad ext 3))

let to_83_exn name =
  match to_83 name with Ok s -> s | Error e -> invalid_arg ("Fat_name: " ^ e)

(* Every name differs from the others only in its digits, and the last
   has the most, so checking it checks them all: if it fits in 8.3, so
   does every shorter one. Each name is then written straight into its 11
   bytes: the upper-cased prefix, the digits, padding and "DAT". *)
let numbered ~prefix ~count =
  if count = 0 then [||]
  else begin
    ignore (to_83_exn (prefix ^ string_of_int (count - 1) ^ ".dat"));
    let up = String.uppercase_ascii prefix in
    let plen = String.length up in
    Array.init count (fun i ->
        let b = Bytes.make 11 ' ' in
        let digits = string_of_int i in
        Bytes.blit_string up 0 b 0 plen;
        Bytes.blit_string digits 0 b plen (String.length digits);
        Bytes.blit_string "DAT" 0 b 8 3;
        Bytes.unsafe_to_string b)
  end

(* What each byte may be in an encoded name: 'c' a character {!to_83}
   keeps (valid and not lowercase), ' ' padding, 'x' neither. A table,
   because {!is_83} runs on every name of every listing built, and a
   round trip through {!to_83} would allocate several strings a name. *)
let byte_class =
  String.init 256 (fun i ->
      let c = Char.chr i in
      if c = ' ' then ' '
      else if valid_char c && not (c >= 'a' && c <= 'z') then 'c'
      else 'x')

(* One part of an encoded name, bytes [i, stop): characters, then only
   padding. *)
let rec part_ok s i stop padding =
  i = stop
  ||
  match String.unsafe_get byte_class (Char.code (String.unsafe_get s i)) with
  | 'c' -> (not padding) && part_ok s (i + 1) stop false
  | ' ' -> part_ok s (i + 1) stop true
  | _ -> false

let is_83 s =
  String.length s = 11
  && String.unsafe_get s 0 <> ' '
  && part_ok s 0 8 false
  && part_ok s 8 11 false

let of_83 s =
  if String.length s <> 11 then invalid_arg "Fat_name.of_83: not 11 bytes";
  let strip part = String.trim part in
  let base = strip (String.sub s 0 8) and ext = strip (String.sub s 8 3) in
  let low = String.lowercase_ascii in
  if ext = "" then low base else low base ^ "." ^ low ext

let equal a b =
  match (to_83 a, to_83 b) with Ok x, Ok y -> x = y | _ -> false

let valid name = Result.is_ok (to_83 name)
