(* The FAT substrate: 8.3 names, image/chain management, directory
   operations, simulated lookups, and the fsck checker. *)

open O2_simcore
open O2_fs

let mem () = Memsys.create ~line_bytes:64 ()

(* ---------- names ---------- *)

let test_name_encode () =
  Alcotest.(check (result string string)) "simple" (Ok "FILE    TXT")
    (Fat_name.to_83 "file.txt");
  Alcotest.(check (result string string)) "no extension" (Ok "README     ")
    (Fat_name.to_83 "readme");
  Alcotest.(check (result string string)) "full width" (Ok "ABCDEFGHIJK")
    (Fat_name.to_83 "abcdefgh.ijk");
  Alcotest.(check (array string)) "numbered"
    [| "F0      DAT"; "F1      DAT"; "F2      DAT" |]
    (Fat_name.numbered ~prefix:"f" ~count:3)

let test_name_rejects () =
  let bad s = Result.is_error (Fat_name.to_83 s) in
  Alcotest.(check bool) "empty" true (bad "");
  Alcotest.(check bool) "too long base" true (bad "abcdefghi");
  Alcotest.(check bool) "too long ext" true (bad "a.abcd");
  Alcotest.(check bool) "two dots" true (bad "a.b.c");
  Alcotest.(check bool) "leading dot" true (bad ".bashrc");
  Alcotest.(check bool) "space" true (bad "a b.txt")

let test_name_roundtrip () =
  List.iter
    (fun n ->
      let enc = Fat_name.to_83_exn n in
      Alcotest.(check string) n n (Fat_name.of_83 enc))
    [ "file.txt"; "readme"; "a.b"; "f123.dat"; "abcdefgh.ijk" ]

let test_name_equal_case_insensitive () =
  Alcotest.(check bool) "case" true (Fat_name.equal "File.TXT" "fILE.txt");
  Alcotest.(check bool) "different" false (Fat_name.equal "a.txt" "b.txt");
  Alcotest.(check bool) "invalid" false (Fat_name.equal "" "")

let prop_valid_names_roundtrip =
  let name_gen =
    QCheck2.Gen.(
      let letters n =
        string_size ~gen:(char_range 'a' 'z') (int_range 1 n)
      in
      map2
        (fun base ext -> if ext = "" then base else base ^ "." ^ ext)
        (letters 8)
        (oneof [ return ""; letters 3 ]))
  in
  QCheck2.Test.make ~name:"8.3 round-trip for valid names" ~count:300 name_gen
    (fun n ->
      match Fat_name.to_83 n with
      | Error _ -> false
      | Ok enc ->
          String.length enc = 11 && Fat_name.is_83 enc && Fat_name.of_83 enc = n)

(* [numbered] must produce exactly what encoding each name with [to_83]
   does, and fail exactly when that does. *)
let numbered_outcome f =
  match f () with names -> Ok names | exception Invalid_argument _ -> Error ()

let numbered_ref ~prefix ~count =
  Array.init count (fun i ->
      Fat_name.to_83_exn (prefix ^ string_of_int i ^ ".dat"))

let numbered_agrees ~prefix ~count =
  numbered_outcome (fun () -> Fat_name.numbered ~prefix ~count)
  = numbered_outcome (fun () -> numbered_ref ~prefix ~count)

let test_numbered_boundaries () =
  List.iter
    (fun (prefix, count) ->
      Alcotest.(check bool) (Printf.sprintf "%S x %d" prefix count) true
        (numbered_agrees ~prefix ~count))
    [ ("f", 0); ("f", 1); ("f", 10); ("f", 100); ("f", 1000); ("Ab_", 11);
      ("abcdef", 100); ("abcdefg", 10); ("", 1000) ];
  Alcotest.(check int) "count 0 is empty" 0
    (Array.length (Fat_name.numbered ~prefix:"f" ~count:0));
  (* "abcdefg10.dat" has a 9-character base *)
  Alcotest.check_raises "largest index overflows the base"
    (Invalid_argument "Fat_name: base part must be 1..8 chars: \"abcdefg10.dat\"")
    (fun () -> ignore (Fat_name.numbered ~prefix:"abcdefg" ~count:11));
  Alcotest.(check bool) "overflow raises like to_83 per name" true
    (numbered_outcome (fun () -> Fat_name.numbered ~prefix:"abcdef" ~count:101)
    = Error ())

let prop_numbered_matches_to_83 =
  let gen =
    QCheck2.Gen.(
      let prefix_char =
        frequency
          [
            (4, char_range 'a' 'z');
            (1, char_range 'A' 'Z');
            (1, char_range '0' '9');
            (1, oneofl [ '_'; '-'; '~'; '!'; '$' ]);
          ]
      in
      pair
        (string_size ~gen:prefix_char (int_bound 7))
        (oneof
           [
             int_bound 1200;
             oneofl [ 0; 1; 9; 10; 11; 99; 100; 101; 999; 1000; 1001 ];
           ]))
  in
  QCheck2.Test.make ~name:"numbered = to_83 of each name" ~count:200 gen
    (fun (prefix, count) -> numbered_agrees ~prefix ~count)

(* ---------- entries ---------- *)

let test_entry_roundtrip () =
  let e =
    {
      Fat_types.name = Fat_name.to_83_exn "boot.bin";
      attr = Fat_types.attr_archive;
      first_cluster = 1234;
      size = 987654;
    }
  in
  let b = Bytes.make 64 '\xAA' in
  Fat_types.encode_entry e b ~off:32;
  Alcotest.(check bool) "decodes equal" true (Fat_types.decode_entry b ~off:32 = e)

(* ---------- image / chains ---------- *)

let image ?(clusters = 64) () =
  Fat_image.create (mem ()) ~label:"t" ~cluster_bytes:512 ~total_clusters:clusters

let test_image_geometry () =
  let img = image () in
  Alcotest.(check int) "free initially" 64 (Fat_image.free_clusters img);
  Alcotest.(check bool) "cluster 2 valid" true (Fat_image.valid_cluster img 2);
  Alcotest.(check bool) "cluster 66 invalid" false (Fat_image.valid_cluster img 66);
  Alcotest.(check bool) "cluster 1 invalid" false (Fat_image.valid_cluster img 1);
  (* simulated addresses are distinct per cluster and within the extent *)
  let a2 = Fat_image.cluster_addr img 2 and a3 = Fat_image.cluster_addr img 3 in
  Alcotest.(check int) "consecutive clusters 512B apart" 512 (a3 - a2)

let test_chain_alloc_follow_free () =
  let img = image () in
  let head = Option.get (Fat_image.alloc_chain img 5) in
  let chain = Fat_image.chain img head in
  Alcotest.(check int) "5 clusters" 5 (List.length chain);
  Alcotest.(check int) "free decremented" 59 (Fat_image.free_clusters img);
  Fat_image.free_chain img head;
  Alcotest.(check int) "freed" 64 (Fat_image.free_clusters img)

let test_chain_extension () =
  let img = image () in
  let head = Option.get (Fat_image.alloc_cluster img ~prev:None) in
  let second = Option.get (Fat_image.alloc_cluster img ~prev:(Some head)) in
  Alcotest.(check (list int)) "linked" [ head; second ] (Fat_image.chain img head)

let test_alloc_exhaustion () =
  let img = image ~clusters:4 () in
  Alcotest.(check bool) "fits" true (Fat_image.alloc_chain img 4 <> None);
  Alcotest.(check (option int)) "full" None (Fat_image.alloc_cluster img ~prev:None)

let test_chain_cycle_detected () =
  let img = image () in
  let head = Option.get (Fat_image.alloc_chain img 3) in
  (* corrupt: point the chain back at its head *)
  let second = List.nth (Fat_image.chain img head) 1 in
  Fat_image.fat_set img second head;
  Alcotest.(check bool) "cycle raises" true
    (match Fat_image.chain img head with
    | _ -> false
    | exception Failure _ -> true)

(* ---------- directories ---------- *)

let test_dir_add_find_remove () =
  let img = image () in
  let head = Option.get (Fat_image.alloc_cluster img ~prev:None) in
  let entry name =
    {
      Fat_types.name = Fat_name.to_83_exn name;
      attr = Fat_types.attr_archive;
      first_cluster = 0;
      size = 0;
    }
  in
  Alcotest.(check bool) "add a" true (Fat_dir.add img ~head (entry "a.txt") = Ok ());
  Alcotest.(check bool) "add b" true (Fat_dir.add img ~head (entry "b.txt") = Ok ());
  Alcotest.(check bool) "duplicate rejected" true
    (Result.is_error (Fat_dir.add img ~head (entry "a.txt")));
  Alcotest.(check int) "count" 2 (Fat_dir.count img ~head);
  Alcotest.(check bool) "find a" true
    (Fat_dir.find img ~head ~name83:(Fat_name.to_83_exn "a.txt") <> None);
  Alcotest.(check bool) "remove a" true
    (Fat_dir.remove img ~head ~name83:(Fat_name.to_83_exn "a.txt"));
  Alcotest.(check bool) "a gone" true
    (Fat_dir.find img ~head ~name83:(Fat_name.to_83_exn "a.txt") = None);
  (* deleted slot is reused *)
  Alcotest.(check bool) "add c reuses slot" true
    (Fat_dir.add img ~head (entry "c.txt") = Ok ());
  Alcotest.(check int) "count back to 2" 2 (Fat_dir.count img ~head)

let test_dir_grows_across_clusters () =
  let img = image () in
  let head = Option.get (Fat_image.alloc_cluster img ~prev:None) in
  let per = Fat_dir.entries_per_cluster img in
  let n = (2 * per) + 3 in
  for i = 0 to n - 1 do
    let e =
      {
        Fat_types.name = Fat_name.to_83_exn (Printf.sprintf "f%d.dat" i);
        attr = Fat_types.attr_archive;
        first_cluster = 0;
        size = 0;
      }
    in
    match Fat_dir.add img ~head e with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "add %d: %s" i msg
  done;
  Alcotest.(check int) "3 clusters" 3 (List.length (Fat_image.chain img head));
  Alcotest.(check int) "all present" n (Fat_dir.count img ~head);
  Alcotest.(check bool) "find across boundary" true
    (Fat_dir.find img ~head ~name83:(Fat_name.to_83_exn (Printf.sprintf "f%d.dat" (n - 1)))
    <> None)

(* ---------- Fat facade + simulated lookups ---------- *)

let fat () =
  let m = Memsys.create ~line_bytes:64 () in
  (m, Fat.format m ~label:"t" ~cluster_bytes:512 ~clusters:256 ())

(* [add] finds the duplicate and the free slot in one walk: a new entry
   takes the first deleted slot, a duplicate after a deleted slot is still
   rejected, and a full chain with a deleted slot reuses it rather than
   growing. The digests were computed with the three-walk [add]
   (duplicate scan, chain list, free-slot rescan) it replaced. *)
let test_dir_add_reuses_deleted_slots () =
  let _, fs = fat () in
  let d = Result.get_ok (Fat.mkdir fs "d") in
  let img = Fat.image fs in
  let add n = Fat.add_file fs d ~name:n ~size:0 in
  let digest () = Digest.to_hex (Digest.bytes (Fat_image.buf img)) in
  let name_at i =
    let per = Fat_dir.entries_per_cluster img in
    let cluster = List.nth (Fat.dir_clusters fs d) (i / per) in
    Bytes.sub_string (Fat_image.buf img)
      (Fat_image.cluster_off img cluster + (i mod per * Fat_types.entry_bytes))
      11
  in
  for i = 0 to 39 do
    Result.get_ok (add (Printf.sprintf "k%d.dat" i))
  done;
  Alcotest.(check bool) "remove k5" true (Fat.remove fs d "k5.dat");
  Alcotest.(check bool) "remove k20" true (Fat.remove fs d "k20.dat");
  let before = digest () in
  Alcotest.(check bool) "duplicate after deleted slots rejected" true
    (Result.is_error (add "k30.dat"));
  Alcotest.(check string) "rejected add writes nothing" before (digest ());
  List.iter (fun n -> Result.get_ok (add n)) [ "new0.dat"; "new1.dat"; "new2.dat" ];
  Alcotest.(check (list string)) "first deleted slots, then the end marker"
    (List.map Fat_name.to_83_exn [ "new0.dat"; "new1.dat"; "new2.dat" ])
    [ name_at 5; name_at 20; name_at 40 ];
  Alcotest.(check string) "image as before" "bc896e2231be744999a8cbc7dcae16f1"
    (digest ());
  for i = 40 to 46 do
    Result.get_ok (add (Printf.sprintf "k%d.dat" i))
  done;
  Alcotest.(check bool) "remove k10" true (Fat.remove fs d "k10.dat");
  Alcotest.(check bool) "duplicate in the last slot rejected" true
    (Result.is_error (add "k46.dat"));
  Result.get_ok (add "new3.dat");
  Alcotest.(check string) "full chain: deleted slot reused"
    (Fat_name.to_83_exn "new3.dat") (name_at 10);
  Alcotest.(check int) "no cluster added" 3 (List.length (Fat.dir_clusters fs d));
  Result.get_ok (add "new4.dat");
  Alcotest.(check int) "then the chain grows" 4
    (List.length (Fat.dir_clusters fs d));
  Alcotest.(check string) "final image as before"
    "7261c93e457b4ed8652ba84530471d21" (digest ())



let listing ~prefix ~count =
  Result.get_ok (Fat.listing_of_names83 (Fat_name.numbered ~prefix ~count))

let same_image what fs1 fs2 =
  Alcotest.(check bool) (what ^ ": same image bytes") true
    (Bytes.equal (Fat_image.buf (Fat.image fs1)) (Fat_image.buf (Fat.image fs2)))

(* Populating from a listing writes exactly the bytes that adding the same
   files one at a time does: when the append starts mid-cluster in an
   already populated directory, when it ends exactly on a cluster
   boundary, and when its fresh clusters were freed with stale entries
   still in them (512-byte clusters: 16 slots each). *)
let test_append_bulk_matches_add () =
  let against_adds what ~count chunks =
    let _, fs1 = fat () and _, fs2 = fat () in
    let d1 = Result.get_ok (Fat.mkdir fs1 "d") in
    let d2 = Result.get_ok (Fat.mkdir fs2 "d") in
    for i = 0 to count - 1 do
      Result.get_ok (Fat.add_file fs1 d1 ~name:(Printf.sprintf "f%d.dat" i) ~size:0)
    done;
    let names = Fat_name.numbered ~prefix:"f" ~count in
    ignore
      (List.fold_left
         (fun start n ->
           let chunk = Array.sub names start n in
           Result.get_ok
             (Fat.populate fs2 d2 (Result.get_ok (Fat.listing_of_names83 chunk)));
           start + n)
         0 chunks);
    Alcotest.(check bool) (what ^ ": same listing") true
      (Fat.readdir fs1 d1 = Fat.readdir fs2 d2);
    same_image what fs1 fs2;
    List.length (Fat.dir_clusters fs2 d2)
  in
  Alcotest.(check int) "mid-cluster start: three clusters" 3
    (against_adds "mid-cluster start" ~count:40 [ 25; 15 ]);
  Alcotest.(check int) "ends on a boundary: two clusters" 2
    (against_adds "ends on a boundary" ~count:32 [ 10; 22 ]);
  (* Fill two clusters with "g" entries, truncate the directory back to its
     emptied head cluster, leaving the second cluster's stale entries in
     place, then populate 20 names: the reused cluster's 12 unused slots
     must read as zero, as on a fresh volume. *)
  let _, stale = fat () and _, fresh = fat () in
  let d = Result.get_ok (Fat.mkdir stale "d") in
  Result.get_ok (Fat.populate stale d (listing ~prefix:"g" ~count:32));
  let img = Fat.image stale in
  let second = List.nth (Fat.dir_clusters stale d) 1 in
  Fat_image.free_chain img second;
  Fat_image.fat_set img d.Fat.head Fat_types.fat_eoc;
  Bytes.fill (Fat_image.buf img)
    (Fat_image.cluster_off img d.Fat.head)
    (Fat_image.cluster_bytes img) '\x00';
  Result.get_ok (Fat.populate stale d (listing ~prefix:"f" ~count:20));
  Alcotest.(check (list int)) "stale cluster reused" [ d.Fat.head; second ]
    (Fat.dir_clusters stale d);
  let d' = Result.get_ok (Fat.mkdir fresh "d") in
  Result.get_ok (Fat.populate fresh d' (listing ~prefix:"f" ~count:20));
  Alcotest.(check int) "stale: 20 entries" 20 (List.length (Fat.readdir stale d));
  same_image "stale clusters" stale fresh

(* A listing checks its names once, when it is built: every name must be
   exactly what [to_83] produces. *)
let test_listing_rejects_bad_names () =
  let good = Fat_name.numbered ~prefix:"g" ~count:3 in
  Alcotest.(check bool) "valid listing" true
    (Result.is_ok (Fat.listing_of_names83 good));
  List.iter
    (fun bad ->
      match Fat.listing_of_names83 [| good.(0); bad; good.(1) |] with
      | Ok _ -> Alcotest.failf "%S accepted" bad
      | Error e ->
          Alcotest.(check string) (Printf.sprintf "%S named" bad)
            (Printf.sprintf "not an encoded 8.3 name: %S" bad) e)
    [ "G0.DAT"; "g1      DAT"; "        DAT"; "G 2     DAT"; "G:3     DAT" ]

let test_populate_all_or_nothing () =
  let m = Memsys.create ~line_bytes:64 () in
  (* root + one directory leave 6 free clusters of 16 slots each *)
  let fs = Fat.format m ~label:"t" ~cluster_bytes:512 ~clusters:8 () in
  let d = Result.get_ok (Fat.mkdir fs "d") in
  Result.get_ok (Fat.populate fs d (listing ~prefix:"f" ~count:10));
  let img = Fat.image fs in
  let before = Bytes.copy (Fat_image.buf img) in
  (* 6 slots left in the head cluster + 6 * 16 = 102 names fit; 103 do not *)
  Alcotest.(check bool) "over capacity is an error" true
    (Result.is_error (Fat.populate fs d (listing ~prefix:"g" ~count:103)));
  Alcotest.(check int) "count unchanged" 10 (Fat_dir.count img ~head:d.Fat.head);
  Alcotest.(check int) "free clusters unchanged" 6 (Fat_image.free_clusters img);
  Alcotest.(check bool) "image unchanged" true
    (Bytes.equal before (Fat_image.buf img));
  Alcotest.(check bool) "fsck clean" true (Fat_check.ok (Fat_check.check fs));
  Result.get_ok (Fat.populate fs d (listing ~prefix:"g" ~count:102));
  Alcotest.(check int) "exactly full" 0 (Fat_image.free_clusters img);
  Alcotest.(check int) "all entries" 112 (Fat_dir.count img ~head:d.Fat.head);
  Alcotest.(check bool) "fsck clean when full" true
    (Fat_check.ok (Fat_check.check fs))

let test_fat_mkdir_and_host_lookup () =
  let _, fs = fat () in
  let d = Result.get_ok (Fat.mkdir fs "www") in
  Result.get_ok
    (Fat.populate fs d (listing ~prefix:"page" ~count:30));
  Alcotest.(check bool) "host lookup hit" true (Fat.lookup_host fs d "page7.dat" <> None);
  Alcotest.(check bool) "host lookup miss" true (Fat.lookup_host fs d "nope.dat" = None);
  Alcotest.(check int) "readdir count" 30 (List.length (Fat.readdir fs d));
  Alcotest.(check bool) "find_dir" true (Fat.find_dir fs "www" = Some d);
  Alcotest.(check bool) "duplicate mkdir fails" true (Result.is_error (Fat.mkdir fs "www"))

let test_fat_sim_lookup_agrees_with_host () =
  (* the volume must live in the machine's memory for simulated reads *)
  let machine = Machine.create Config.amd16 in
  let fs = Fat.format (Machine.memory machine) ~label:"t" ~cluster_bytes:512 ~clusters:256 () in
  let d = Result.get_ok (Fat.mkdir fs "docs") in
  Result.get_ok (Fat.populate fs d (listing ~prefix:"f" ~count:100));
  let engine = O2_runtime.Engine.create machine in
  let sim_result = ref None and sim_miss = ref (Some Fat_types.{ name = ""; attr = 0; first_cluster = 0; size = 0 }) in
  ignore
    (O2_runtime.Engine.spawn engine ~core:0 ~name:"t" (fun () ->
         sim_result := Fat.lookup fs d "f55.dat";
         sim_miss := Fat.lookup fs d "missing.dat"));
  O2_runtime.Engine.run engine;
  Alcotest.(check bool) "hit agrees with host" true
    (!sim_result = Fat.lookup_host fs d "f55.dat" && !sim_result <> None);
  Alcotest.(check bool) "miss agrees" true (!sim_miss = None);
  Alcotest.(check bool) "lookup charged cycles" true
    (O2_runtime.Engine.core_clock engine 0 > 0)

let test_fat_lookup_locked_serializes () =
  let machine = Machine.create Config.amd16 in
  let fs = Fat.format (Machine.memory machine) ~label:"t" ~cluster_bytes:512 ~clusters:512 () in
  let d = Result.get_ok (Fat.mkdir fs "shared") in
  Result.get_ok (Fat.populate fs d (listing ~prefix:"f" ~count:200));
  let engine = O2_runtime.Engine.create machine in
  let hits = ref 0 in
  for core = 0 to 3 do
    ignore
      (O2_runtime.Engine.spawn engine ~core ~name:(Printf.sprintf "w%d" core)
         (fun () ->
           for i = 0 to 9 do
             if Fat.lookup_locked fs d (Printf.sprintf "f%d.dat" (i * 17)) <> None
             then incr hits
           done))
  done;
  O2_runtime.Engine.run engine;
  Alcotest.(check int) "all lookups resolved" 40 !hits;
  Alcotest.(check int) "lock used" 40 d.Fat.lock.O2_runtime.Spinlock.acquisitions

let test_fsck_clean_and_detects_corruption () =
  let _, fs = fat () in
  let d = Result.get_ok (Fat.mkdir fs "a") in
  Result.get_ok (Fat.populate fs d (listing ~prefix:"f" ~count:50));
  let r = Fat_check.check fs in
  Alcotest.(check bool) "clean volume" true (Fat_check.ok r);
  Alcotest.(check int) "two directories (root + a)" 2 r.Fat_check.directories;
  Alcotest.(check int) "50 files" 50 r.Fat_check.files;
  (* corrupt the FAT: cross-link a cluster *)
  let img = Fat.image fs in
  Fat_image.fat_set img d.Fat.head d.Fat.head;
  let r = Fat_check.check fs in
  Alcotest.(check bool) "corruption detected" false (Fat_check.ok r)

let test_fat_rejects_invalid_names () =
  let _, fs = fat () in
  Alcotest.(check bool) "mkdir bad name" true (Result.is_error (Fat.mkdir fs "bad name"));
  let d = Result.get_ok (Fat.mkdir fs "ok") in
  Alcotest.(check bool) "add_file bad name" true
    (Result.is_error (Fat.add_file fs d ~name:"also bad" ~size:0))

let test_dir_object_identity () =
  let _, fs = fat () in
  let d = Result.get_ok (Fat.mkdir fs "obj") in
  Result.get_ok (Fat.populate fs d (listing ~prefix:"f" ~count:40));
  Alcotest.(check int) "base addr = first cluster addr"
    (Fat_image.cluster_addr (Fat.image fs) d.Fat.head)
    (Fat.dir_base_addr fs d);
  Alcotest.(check int) "size covers the chain"
    (List.length (Fat.dir_clusters fs d) * 512)
    (Fat.dir_bytes fs d)

let test_nested_dirs_and_paths () =
  let _, fs = fat () in
  let www = Result.get_ok (Fat.mkdir fs "www") in
  let static = Result.get_ok (Fat.mkdir_in fs www "static") in
  Result.get_ok
    (Fat.populate fs static (listing ~prefix:"img" ~count:10));
  Alcotest.(check (option string)) "registered under its path" (Some "/www/static")
    (Option.map (fun d -> d.Fat.dname) (Fat.find_dir fs "/www/static"));
  Alcotest.(check bool) "parent of static is www" true
    (Fat.parent fs static = Some www);
  Alcotest.(check bool) "parent of root-level dir is root" true
    (Fat.parent fs www = Some (Fat.root fs));
  (match Fat.resolve fs "/www/static/img3.dat" with
  | Some (`File e) ->
      Alcotest.(check string) "file found" "IMG3    DAT" e.Fat_types.name
  | _ -> Alcotest.fail "expected a file");
  (match Fat.resolve fs "/www/static" with
  | Some (`Dir d) -> Alcotest.(check string) "dir found" "/www/static" d.Fat.dname
  | _ -> Alcotest.fail "expected a dir");
  (match Fat.resolve fs "/www/static/../static/./img0.dat" with
  | Some (`File _) -> ()
  | _ -> Alcotest.fail "dot components");
  Alcotest.(check bool) "missing path" true (Fat.resolve fs "/www/nope/x" = None);
  Alcotest.(check bool) "fsck clean with nesting" true
    (Fat_check.ok (Fat_check.check fs))

let test_mkdir_path () =
  let _, fs = fat () in
  let c = Result.get_ok (Fat.mkdir_path fs "/a/b/c") in
  Alcotest.(check string) "deep dir created" "/a/b/c" c.Fat.dname;
  (* idempotent on existing components *)
  let c2 = Result.get_ok (Fat.mkdir_path fs "/a/b/c") in
  Alcotest.(check bool) "same handle" true (c == c2);
  Alcotest.(check bool) "intermediates registered" true
    (Fat.find_dir fs "/a/b" <> None)

let test_resolve_sim_agrees () =
  let machine = Machine.create Config.amd16 in
  let fs =
    Fat.format (Machine.memory machine) ~label:"t" ~cluster_bytes:512
      ~clusters:256 ()
  in
  let sub = Result.get_ok (Fat.mkdir_path fs "/srv/data") in
  Result.get_ok (Fat.populate fs sub (listing ~prefix:"f" ~count:20));
  let engine = O2_runtime.Engine.create machine in
  let hit = ref None and miss = ref (Some (`Dir (Fat.root fs))) in
  ignore
    (O2_runtime.Engine.spawn engine ~core:0 ~name:"t" (fun () ->
         hit := Fat.resolve_sim fs "/srv/data/f7.dat";
         miss := Fat.resolve_sim fs "/srv/data/f99.dat"));
  O2_runtime.Engine.run engine;
  (match !hit with
  | Some (`File e) ->
      Alcotest.(check bool) "same entry as host resolve" true
        (Fat.resolve fs "/srv/data/f7.dat" = Some (`File e))
  | _ -> Alcotest.fail "sim resolve should find the file");
  Alcotest.(check bool) "sim resolve miss" true (!miss = None);
  Alcotest.(check bool) "component scans cost cycles" true
    (O2_runtime.Engine.core_clock engine 0 > 0)

(* Model-based property: a directory behaves like a name -> entry map
   under random add/remove/lookup sequences, and the volume stays
   fsck-clean throughout. *)
let prop_dir_matches_map =
  let op_gen =
    QCheck2.Gen.(
      oneof
        [
          map (fun i -> `Add i) (int_bound 25);
          map (fun i -> `Remove i) (int_bound 25);
          map (fun i -> `Lookup i) (int_bound 25);
        ])
  in
  QCheck2.Test.make ~name:"directory behaves like a map (and stays fsck-clean)"
    ~count:60
    QCheck2.Gen.(list_size (int_bound 120) op_gen)
    (fun ops ->
      let _, fs = fat () in
      let d = Result.get_ok (Fat.mkdir fs "m") in
      let model : (string, int) Hashtbl.t = Hashtbl.create 16 in
      let name i = Printf.sprintf "k%d.dat" i in
      let ok =
        List.for_all
          (fun op ->
            match op with
            | `Add i -> (
                let expected_ok = not (Hashtbl.mem model (name i)) in
                match Fat.add_file fs d ~name:(name i) ~size:i with
                | Ok () ->
                    Hashtbl.replace model (name i) i;
                    expected_ok
                | Error _ -> not expected_ok)
            | `Remove i ->
                let expected = Hashtbl.mem model (name i) in
                Hashtbl.remove model (name i);
                Fat.remove fs d (name i) = expected
            | `Lookup i -> (
                match (Fat.lookup_host fs d (name i), Hashtbl.find_opt model (name i)) with
                | Some e, Some size -> e.Fat_types.size = size
                | None, None -> true
                | Some _, None | None, Some _ -> false))
          ops
      in
      ok
      && List.length (Fat.readdir fs d) = Hashtbl.length model
      && Fat_check.ok (Fat_check.check fs))

let suite =
  [
    Alcotest.test_case "8.3 encoding" `Quick test_name_encode;
    Alcotest.test_case "8.3 rejects invalid names" `Quick test_name_rejects;
    Alcotest.test_case "8.3 round-trips" `Quick test_name_roundtrip;
    Alcotest.test_case "name comparison is case-insensitive" `Quick test_name_equal_case_insensitive;
    QCheck_alcotest.to_alcotest prop_valid_names_roundtrip;
    Alcotest.test_case "numbered at digit boundaries" `Quick test_numbered_boundaries;
    QCheck_alcotest.to_alcotest prop_numbered_matches_to_83;
    Alcotest.test_case "entry encode/decode" `Quick test_entry_roundtrip;
    Alcotest.test_case "image geometry" `Quick test_image_geometry;
    Alcotest.test_case "chain alloc/follow/free" `Quick test_chain_alloc_follow_free;
    Alcotest.test_case "chain extension" `Quick test_chain_extension;
    Alcotest.test_case "allocation exhaustion" `Quick test_alloc_exhaustion;
    Alcotest.test_case "chain cycles detected" `Quick test_chain_cycle_detected;
    Alcotest.test_case "dir add/find/remove/reuse" `Quick test_dir_add_find_remove;
    Alcotest.test_case "dir grows across clusters" `Quick test_dir_grows_across_clusters;
    Alcotest.test_case "dir add reuses the first deleted slot" `Quick test_dir_add_reuses_deleted_slots;
    Alcotest.test_case "append_bulk = repeated add" `Quick test_append_bulk_matches_add;
    Alcotest.test_case "listing rejects bad names" `Quick test_listing_rejects_bad_names;
    Alcotest.test_case "populate is all-or-nothing" `Quick test_populate_all_or_nothing;
    Alcotest.test_case "mkdir + host lookups" `Quick test_fat_mkdir_and_host_lookup;
    Alcotest.test_case "simulated lookup agrees with host" `Quick test_fat_sim_lookup_agrees_with_host;
    Alcotest.test_case "locked lookups serialize" `Quick test_fat_lookup_locked_serializes;
    Alcotest.test_case "fsck: clean and corrupted volumes" `Quick test_fsck_clean_and_detects_corruption;
    Alcotest.test_case "invalid names rejected" `Quick test_fat_rejects_invalid_names;
    Alcotest.test_case "directory object identity" `Quick test_dir_object_identity;
    Alcotest.test_case "nested directories and path resolution" `Quick test_nested_dirs_and_paths;
    Alcotest.test_case "mkdir_path" `Quick test_mkdir_path;
    Alcotest.test_case "simulated path resolution" `Quick test_resolve_sim_agrees;
    QCheck_alcotest.to_alcotest prop_dir_matches_map;
  ]
