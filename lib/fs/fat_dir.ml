let entries_per_cluster img =
  Fat_image.cluster_bytes img / Fat_types.entry_bytes

(* Scan one cluster, comparing the 8.3 name bytes in place — no decoded
   entry record, no allocation per live slot. The packed result is:
   the matching slot index (>= 0) on a hit; [-1] when the cluster was
   exhausted without a hit; [-(2 + slot)] when the end-of-directory marker
   sits at [slot]. The loop is a top-level recursion: a [let rec ... in]
   closure would be heap-allocated per scan without flambda. *)
let rec scan_slots buf base per name83 i =
  if i >= per then -1
  else begin
    let off = base + (i * Fat_types.entry_bytes) in
    if Fat_types.is_end buf ~off then -(2 + i)
    else if
      (not (Fat_types.is_deleted buf ~off))
      && Fat_types.name_matches buf ~off name83
    then i
    else scan_slots buf base per name83 (i + 1)
  end

let scan_cluster img cluster ~name83 =
  scan_slots (Fat_image.buf img)
    (Fat_image.cluster_off img cluster)
    (entries_per_cluster img) name83 0

let decode_at img cluster slot =
  Fat_types.decode_entry (Fat_image.buf img)
    ~off:(Fat_image.cluster_off img cluster + (slot * Fat_types.entry_bytes))

(* Walks follow the chain one FAT cell at a time ([Fat_image.next_cluster])
   instead of materialising the whole chain as a list; [steps] bounds the
   walk so a cyclic chain in a corrupt image still terminates. *)

let rec find_walk img name83 total cluster steps =
  if steps > total then failwith "Fat_dir.find: cycle in cluster chain"
  else begin
    let r = scan_cluster img cluster ~name83 in
    if r >= 0 then Some (decode_at img cluster r)
    else if r = -1 then begin
      let next = Fat_image.next_cluster img cluster in
      if next < 0 then None else find_walk img name83 total next (steps + 1)
    end
    else None (* end-of-directory marker *)
  end

let find img ~head ~name83 =
  find_walk img name83 (Fat_image.total_clusters img) head 0

let lookup_sim img ~head ~name83 ~compare_cycles =
  let open O2_runtime in
  let per = entries_per_cluster img in
  let charge cluster slots =
    ignore
      (Api.read
         ~addr:(Fat_image.cluster_addr img cluster)
         ~len:(slots * Fat_types.entry_bytes));
    Api.compute (slots * compare_cycles)
  in
  let total = Fat_image.total_clusters img in
  let rec walk cluster steps =
    if steps > total then failwith "Fat_dir.lookup_sim: cycle in cluster chain"
    else begin
      let r = scan_cluster img cluster ~name83 in
      if r >= 0 then begin
        charge cluster (r + 1);
        Some (decode_at img cluster r)
      end
      else if r = -1 then begin
        charge cluster per;
        let next = Fat_image.next_cluster img cluster in
        if next < 0 then None
        else begin
          (* Moving to the next cluster reads this one's FAT cell. *)
          ignore (Api.read ~addr:(Fat_image.fat_entry_addr img cluster) ~len:2);
          walk next (steps + 1)
        end
      end
      else begin
        (* end marker at slot [-(r + 2)]: examined slots up to and
           including it *)
        charge cluster (-r - 1);
        None
      end
    end
  in
  walk head 0

let zero_cluster img cluster =
  Bytes.fill (Fat_image.buf img)
    (Fat_image.cluster_off img cluster)
    (Fat_image.cluster_bytes img) '\x00'

(* [add]'s single walk: the duplicate check and the first free slot (the
   first deleted slot, else the end-of-directory marker) in one pass over
   the chain. [free] carries the first deleted slot seen so far. *)
type add_slot =
  | Duplicate
  | Slot of int * int  (* cluster, slot *)
  | Extend of int  (* no free slot: grow the chain after this cluster *)

let rec add_walk img per name83 total cluster steps free =
  if steps > total then failwith "Fat_dir.add: cycle in cluster chain"
  else begin
    let buf = Fat_image.buf img and base = Fat_image.cluster_off img cluster in
    let rec go i free =
      if i >= per then begin
        let next = Fat_image.next_cluster img cluster in
        if next >= 0 then add_walk img per name83 total next (steps + 1) free
        else match free with Some s -> s | None -> Extend cluster
      end
      else begin
        let off = base + (i * Fat_types.entry_bytes) in
        if Fat_types.is_end buf ~off then
          (match free with Some s -> s | None -> Slot (cluster, i))
        else if Fat_types.is_deleted buf ~off then
          go (i + 1) (if free = None then Some (Slot (cluster, i)) else free)
        else if Fat_types.name_matches buf ~off name83 then Duplicate
        else go (i + 1) free
      end
    in
    go 0 free
  end

let add img ~head entry =
  let write_at cluster slot =
    Fat_types.encode_entry entry (Fat_image.buf img)
      ~off:(Fat_image.cluster_off img cluster + (slot * Fat_types.entry_bytes));
    Ok ()
  in
  (* Writing over the end marker is safe because the rest of the cluster
     is zero. *)
  match
    add_walk img (entries_per_cluster img) entry.Fat_types.name
      (Fat_image.total_clusters img) head 0 None
  with
  | Duplicate -> Error (Printf.sprintf "duplicate entry %S" entry.Fat_types.name)
  | Slot (cluster, slot) -> write_at cluster slot
  | Extend last -> (
      match Fat_image.alloc_cluster img ~prev:(Some last) with
      | None -> Error "volume full"
      | Some fresh ->
          zero_cluster img fresh;
          write_at fresh 0)

(* A listing is the directory slots of its names, encoded back to back:
   [n * entry_bytes] bytes, every name checked when it was built. *)
type listing = Bytes.t

let listing_of_names83 names83 =
  match Array.find_opt (fun n -> not (Fat_name.is_83 n)) names83 with
  | Some bad -> Error (Printf.sprintf "not an encoded 8.3 name: %S" bad)
  | None ->
      let slots = Bytes.create (Array.length names83 * Fat_types.entry_bytes) in
      Array.iteri
        (fun i n -> Fat_types.encode_file n slots ~off:(i * Fat_types.entry_bytes))
        names83;
      Ok slots

let rec last_cluster img total cluster steps =
  if steps > total then failwith "Fat_dir.append_bulk: cycle in cluster chain"
  else begin
    let next = Fat_image.next_cluster img cluster in
    if next < 0 then cluster else last_cluster img total next (steps + 1)
  end

(* Slot index of the end-of-directory marker in [cluster], or [per] when
   the cluster is full. *)
let end_slot img cluster =
  let buf = Fat_image.buf img and per = entries_per_cluster img in
  let base = Fat_image.cluster_off img cluster in
  let rec go i =
    if i >= per || Fat_types.is_end buf ~off:(base + (i * Fat_types.entry_bytes))
    then i
    else go (i + 1)
  in
  go 0

(* Copy [listing] from byte [src] on into [cluster] from byte [off] of it,
   then into fresh clusters linked after it: one blit per cluster. The
   unused tail of the last cluster written is zeroed, so the byte after
   the last slot is the end-of-directory marker even in a fresh cluster
   that still holds a freed chain's stale bytes. *)
let rec blit_listing img listing src cluster off =
  let buf = Fat_image.buf img and cb = Fat_image.cluster_bytes img in
  let base = Fat_image.cluster_off img cluster in
  let n = min (Bytes.length listing - src) (cb - off) in
  Bytes.blit listing src buf (base + off) n;
  if src + n < Bytes.length listing then
    match Fat_image.alloc_cluster img ~prev:(Some cluster) with
    | None -> assert false (* free count checked by append_bulk *)
    | Some fresh -> blit_listing img listing (src + n) fresh 0
  else Bytes.fill buf (base + off + n) (cb - off - n) '\x00'

let append_bulk img ~head listing =
  let last = last_cluster img (Fat_image.total_clusters img) head 0 in
  let per = entries_per_cluster img in
  let slot = end_slot img last in
  let spill = slot + (Bytes.length listing / Fat_types.entry_bytes) - per in
  let needed = if spill <= 0 then 0 else (spill + per - 1) / per in
  if needed > Fat_image.free_clusters img then Error "volume full"
  else begin
    blit_listing img listing 0 last (slot * Fat_types.entry_bytes);
    Ok ()
  end

let remove img ~head ~name83 =
  let buf = Fat_image.buf img in
  let per = entries_per_cluster img in
  let rec walk = function
    | [] -> false
    | cluster :: rest ->
        let base = Fat_image.cluster_off img cluster in
        let rec go i =
          if i >= per then walk rest
          else begin
            let off = base + (i * Fat_types.entry_bytes) in
            if Fat_types.is_end buf ~off then false
            else if
              (not (Fat_types.is_deleted buf ~off))
              && Fat_types.name_matches buf ~off name83
            then begin
              Bytes.set buf off Fat_types.deleted_marker;
              true
            end
            else go (i + 1)
          end
        in
        go 0
  in
  walk (Fat_image.chain img head)

let list img ~head =
  let buf = Fat_image.buf img in
  let per = entries_per_cluster img in
  let rec walk acc = function
    | [] -> List.rev acc
    | cluster :: rest ->
        let base = Fat_image.cluster_off img cluster in
        let rec go acc i =
          if i >= per then walk acc rest
          else begin
            let off = base + (i * Fat_types.entry_bytes) in
            if Fat_types.is_end buf ~off then List.rev acc
            else if Fat_types.is_deleted buf ~off then go acc (i + 1)
            else go (Fat_types.decode_entry buf ~off :: acc) (i + 1)
          end
        in
        go acc 0
  in
  walk [] (Fat_image.chain img head)

let count img ~head = List.length (list img ~head)
