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

let add img ~head entry =
  if find img ~head ~name83:entry.Fat_types.name <> None then
    Error (Printf.sprintf "duplicate entry %S" entry.Fat_types.name)
  else begin
    let buf = Fat_image.buf img in
    let per = entries_per_cluster img in
    let write_at cluster slot =
      Fat_types.encode_entry entry buf
        ~off:(Fat_image.cluster_off img cluster + (slot * Fat_types.entry_bytes));
      Ok ()
    in
    (* First free slot: a deleted entry or the end marker. Writing over the
       end marker is safe because the rest of the cluster is zero. *)
    let rec scan_chain = function
      | [] -> assert false
      | [ last ] -> (
          match free_slot last with
          | Some slot -> write_at last slot
          | None -> (
              match Fat_image.alloc_cluster img ~prev:(Some last) with
              | None -> Error "volume full"
              | Some fresh ->
                  zero_cluster img fresh;
                  write_at fresh 0))
      | cluster :: rest -> (
          match free_slot cluster with
          | Some slot -> write_at cluster slot
          | None -> scan_chain rest)
    and free_slot cluster =
      let base = Fat_image.cluster_off img cluster in
      let rec go i =
        if i >= per then None
        else begin
          let off = base + (i * Fat_types.entry_bytes) in
          if Fat_types.is_end buf ~off || Fat_types.is_deleted buf ~off then
            Some i
          else go (i + 1)
        end
      in
      go 0
    in
    scan_chain (Fat_image.chain img head)
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

let rec fill img per names83 i cluster slot =
  if i < Array.length names83 then
    if slot = per then begin
      match Fat_image.alloc_cluster img ~prev:(Some cluster) with
      | None -> assert false (* free count checked by append_bulk *)
      | Some fresh ->
          zero_cluster img fresh;
          fill img per names83 i fresh 0
    end
    else begin
      Fat_types.encode_file names83.(i) (Fat_image.buf img)
        ~off:(Fat_image.cluster_off img cluster + (slot * Fat_types.entry_bytes));
      fill img per names83 (i + 1) cluster (slot + 1)
    end

let append_bulk img ~head names83 =
  match Array.find_opt (fun n -> not (Fat_name.is_83 n)) names83 with
  | Some bad -> Error (Printf.sprintf "not an encoded 8.3 name: %S" bad)
  | None ->
      let chain = Fat_image.chain img head in
      let last = List.nth chain (List.length chain - 1) in
      let per = entries_per_cluster img in
      let slot = end_slot img last in
      let spill = slot + Array.length names83 - per in
      let needed = if spill <= 0 then 0 else (spill + per - 1) / per in
      if needed > Fat_image.free_clusters img then Error "volume full"
      else begin
        fill img per names83 0 last slot;
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
