open O2_simcore
open O2_workload
open O2_stats

let kres p = p.Harness.kres_per_sec

(* Optional per-cell latency columns, shared by the ablations that accept
   [--metrics] from the CLI. *)
let lat_columns (obs : Harness.obs) =
  if obs.Harness.metrics then
    [ ("op p50 (cyc)", Table.Right); ("op p99 (cyc)", Table.Right) ]
  else []

let lat_cells (obs : Harness.obs) p =
  if not obs.Harness.metrics then []
  else
    match p.Harness.metrics with
    | Some m ->
        let h = O2_obs.Metrics.hist m "op/latency" in
        if O2_obs.Hist.count h = 0 then [ "-"; "-" ]
        else
          [
            Printf.sprintf "%.0f" (O2_obs.Hist.p50 h);
            Printf.sprintf "%.0f" (O2_obs.Hist.p99 h);
          ]
    | None -> [ "-"; "-" ]

(* Optional per-cell occupancy column ([--occupancy]): distinct lines on
   chip when the cell finished. The helpers return an [attach] hook for
   {!Harness.run_cells} plus the per-cell readback. *)
let occ_columns (obs : Harness.obs) =
  if obs.Harness.occupancy then [ ("chip lines", Table.Right) ] else []

let occ_trackers (obs : Harness.obs) n =
  let occs = Array.make n None in
  let attach =
    if obs.Harness.occupancy then
      Some
        (fun i engine ->
          occs.(i) <-
            Some
              (O2_obs.Occupancy.attach ~interval:obs.Harness.occupancy_interval
                 (O2_runtime.Engine.machine engine)))
    else None
  in
  let cell i =
    if not obs.Harness.occupancy then []
    else
      [
        (match occs.(i) with
        | Some o -> string_of_int (O2_obs.Occupancy.distinct_lines o)
        | None -> "-");
      ]
  in
  (attach, cell)

let migration_cost ?(obs = Harness.no_obs) ~quick ~jobs ppf =
  Format.fprintf ppf
    "@.=== E6: migration-cost sensitivity (8 MB working set) ===@.@.";
  let kb = 8192 in
  let spec = Dir_workload.spec_for_data_kb ~kb () in
  let warmup = Harness.scaled ~quick (40_000_000 + (kb * 2500)) in
  let measure = Harness.scaled ~quick 40_000_000 in
  let costs =
    if quick then [ 500; 2000; 8000 ]
    else [ 250; 500; 1000; 2000; 4000; 8000; 16000 ]
  in
  let cost_cell cost =
    let cfg =
      {
        Config.amd16 with
        Config.migration_save = cost / 4;
        migration_xfer = cost / 2;
        migration_restore = cost / 4;
        poll_interval = 0;
      }
    in
    Harness.setup ~cfg ~warmup ~measure
      ~collect_metrics:obs.Harness.metrics spec
  in
  (* baseline rides along as cell 0 of the same batch *)
  let cells =
    Harness.setup ~policy:Coretime.Policy.baseline ~warmup ~measure
      ~collect_metrics:obs.Harness.metrics spec
    :: List.map cost_cell costs
  in
  let attach, occ_cell = occ_trackers obs (List.length cells) in
  let baseline, points =
    match Harness.run_cells ?attach ~jobs cells with
    | baseline :: points -> (baseline, points)
    | [] -> assert false
  in
  let t =
    Table.create
      ~columns:
        ([
           ("migration cost (cycles)", Table.Right);
           ("CoreTime (kres/s)", Table.Right);
           ("vs baseline", Table.Right);
         ]
        @ occ_columns obs @ lat_columns obs)
  in
  List.iteri
    (fun i (cost, p) ->
      Table.add_row t
        ([
           string_of_int cost;
           Printf.sprintf "%.0f" (kres p);
           Printf.sprintf "%.2fx" (kres p /. kres baseline);
         ]
        @ occ_cell (i + 1) (* cell 0 is the baseline *)
        @ lat_cells obs p))
    (List.combine costs points);
  Format.pp_print_string ppf (Table.render t);
  Format.fprintf ppf "baseline (no CoreTime): %.0f kres/s@." (kres baseline);
  Format.fprintf ppf
    "cheaper migration (hardware active messages) widens the win; costly \
     migration erodes it.@."

let replication ~quick ~jobs ppf =
  Format.fprintf ppf
    "@.=== E7: replicate read-only objects vs schedule them (zipf 1.1, \
     lock-free lookups) ===@.@.";
  let spec =
    {
      (Dir_workload.spec_for_data_kb ~kb:4096 ()) with
      Dir_workload.dir_dist = `Zipf 1.1;
      use_locks = false;
    }
  in
  let warmup = Harness.scaled ~quick 40_000_000 in
  let measure = Harness.scaled ~quick 40_000_000 in
  let cell policy = Harness.setup ~policy ~warmup ~measure spec in
  let baseline, partition, replicate =
    match
      Harness.run_cells ~jobs
        [
          cell Coretime.Policy.baseline;
          cell Coretime.Policy.default;
          cell
            {
              Coretime.Policy.default with
              Coretime.Policy.replicate_read_only = true;
            };
        ]
    with
    | [ a; b; c ] -> (a, b, c)
    | _ -> assert false
  in
  let t =
    Table.create
      ~columns:
        [ ("policy", Table.Left); ("kres/s", Table.Right); ("migrations", Table.Right) ]
  in
  List.iter
    (fun (name, p) ->
      Table.add_row t
        [
          name;
          Printf.sprintf "%.0f" (kres p);
          string_of_int p.Harness.op_migrations;
        ])
    [
      ("hardware-managed (baseline)", baseline);
      ("partition all hot objects", partition);
      ("replicate hot read-only objects", replicate);
    ];
  Format.pp_print_string ppf (Table.render t);
  Format.fprintf ppf
    "the replication policy keeps the hot head parallel (fewer forced \
     migrations) while still scheduling the cold tail.@."

(* With a *static* skew, miss-driven promotion already captures the hot
   head (the hottest objects cross the promotion threshold first), so the
   replacement policy only matters when popularity drifts: here the
   rank-to-directory mapping rotates by an eighth every 10M cycles, so the
   hot set keeps moving off whatever the table holds. *)
let overflow ~quick ~jobs ppf =
  Format.fprintf ppf
    "@.=== E8: working set larger than on-chip memory (16 MB capacity; \
     zipf 1.0, drifting hot set) ===@.@.";
  let measure = Harness.scaled ~quick 60_000_000 in
  let sizes = if quick then [ 24576 ] else [ 18432; 24576; 32768 ] in
  let drift_period = 10_000_000 in
  (* builds its own machine/engine and shares nothing: safe as a pool cell *)
  let run_one (kb, policy) =
    let machine = Machine.create Config.amd16 in
    let engine = O2_runtime.Engine.create machine in
    let ct = Coretime.create ~policy engine () in
    let spec =
      {
        (Dir_workload.spec_for_data_kb ~kb ()) with
        Dir_workload.dir_dist = `Zipf 1.0;
        shuffle_popularity = true;
      }
    in
    let w = Dir_workload.build ct spec in
    Dir_workload.spawn_threads w;
    O2_runtime.Engine.every engine ~period:drift_period (fun ~now:_ ->
        Dir_workload.rotate_popularity w ~by:(spec.Dir_workload.dirs / 8));
    let warmup = Harness.scaled ~quick (40_000_000 + (kb * 2500)) in
    O2_runtime.Engine.run ~until:warmup engine;
    let ops0 = Dir_workload.lookups_done w in
    O2_runtime.Engine.run ~until:(warmup + measure) engine;
    let ops = Dir_workload.lookups_done w - ops0 in
    let rb = Coretime.Rebalancer.stats (Coretime.rebalancer ct) in
    ( float_of_int ops
      /. (float_of_int measure /. (Config.amd16.Config.ghz *. 1e9))
      /. 1000.0,
      rb.Coretime.Rebalancer.demotions )
  in
  let frozen_policy =
    {
      Coretime.Policy.default with
      (* never demote: whatever promoted first keeps its slot *)
      Coretime.Policy.demote_idle_periods = max_int / 2;
    }
  in
  let cells =
    List.concat_map
      (fun kb ->
        [
          (kb, Coretime.Policy.baseline);
          (kb, frozen_policy);
          (kb, Coretime.Policy.default);
        ])
      sizes
  in
  let points = O2_runtime.Domain_pool.map ~jobs run_one cells in
  let t =
    Table.create
      ~columns:
        [
          ("data (KB)", Table.Right);
          ("baseline", Table.Right);
          ("CoreTime, frozen table", Table.Right);
          ("CoreTime, replacement on", Table.Right);
          ("demotions", Table.Right);
        ]
  in
  let rec rows sizes points =
    match (sizes, points) with
    | [], [] -> ()
    | ( kb :: sizes,
        (baseline, _) :: (frozen, _) :: (adaptive, demotions) :: points ) ->
        Table.add_row t
          [
            string_of_int kb;
            Printf.sprintf "%.0f" baseline;
            Printf.sprintf "%.0f" frozen;
            Printf.sprintf "%.0f" adaptive;
            string_of_int demotions;
          ];
        rows sizes points
    | _ -> invalid_arg "Ablations.overflow: cell/size mismatch"
  in
  rows sizes points;
  Format.pp_print_string ppf (Table.render t);
  Format.fprintf ppf
    "a frozen table goes stale and loses even to the hardware; demoting \
     idle objects under budget pressure and re-promoting the new hot set \
     keeps the most-operated-on objects on-chip (the Section 6.2 \
     replacement policy).@."

(* E9 uses its own paired-lookup loop rather than Dir_workload's. *)
let clustering ~quick ~jobs ppf =
  Format.fprintf ppf
    "@.=== E9: object clustering for operations that use two objects \
     ===@.@.";
  let warmup = Harness.scaled ~quick 40_000_000 in
  let measure = Harness.scaled ~quick 40_000_000 in
  let horizon = warmup + measure in
  let run_one with_clustering =
    let machine = Machine.create Config.amd16 in
    let engine = O2_runtime.Engine.create machine in
    let policy =
      {
        Coretime.Policy.default with
        Coretime.Policy.clustering = with_clustering;
        promote_min_ops = 10;
        cluster_min_coaccess = 6;
      }
    in
    let ct = Coretime.create ~policy engine () in
    let spec =
      {
        (Dir_workload.spec_for_data_kb ~kb:4096 ()) with
        Dir_workload.use_locks = false;
      }
    in
    let w = Dir_workload.build ct spec in
    let dirs = spec.Dir_workload.dirs in
    let half = dirs / 2 in
    (* every operation searches directory i and then its partner i+half *)
    for core = 0 to O2_runtime.Engine.cores engine - 1 do
      let rng = Rng.create ~seed:(spec.Dir_workload.seed + core) in
      ignore
        (O2_runtime.Engine.spawn engine ~core
           ~name:(Printf.sprintf "pair-worker-%d" core)
           (fun () ->
             let fs = Dir_workload.fs w in
             while true do
               let i = Rng.int rng ~bound:half in
               let j = i + half in
               let a = Dir_workload.directory w i in
               let b = Dir_workload.directory w j in
               let name =
                 Printf.sprintf "f%d.dat"
                   (Rng.int rng ~bound:spec.Dir_workload.entries_per_dir)
               in
               Coretime.ct_start ct (O2_fs.Fat.dir_base_addr fs a);
               ignore (O2_fs.Fat.lookup fs a name);
               Coretime.ct_start ct (O2_fs.Fat.dir_base_addr fs b);
               ignore (O2_fs.Fat.lookup fs b name);
               Coretime.ct_end ct;
               Coretime.ct_end ct
             done))
    done;
    O2_runtime.Engine.run ~until:warmup engine;
    let ops0 = (Coretime.stats ct).Coretime.ops in
    let mig0 = (Coretime.stats ct).Coretime.op_migrations in
    O2_runtime.Engine.run ~until:horizon engine;
    let ops = (Coretime.stats ct).Coretime.ops - ops0 in
    let migs = (Coretime.stats ct).Coretime.op_migrations - mig0 in
    let pairs = ops / 2 in
    let seconds = float_of_int measure /. (Config.amd16.Config.ghz *. 1e9) in
    ( float_of_int pairs /. seconds /. 1000.0,
      float_of_int migs /. float_of_int (max pairs 1),
      Coretime.Clustering.pairs_tracked (Coretime.clustering ct) )
  in
  let (off_kres, off_migs, _), (on_kres, on_migs, pairs) =
    match O2_runtime.Domain_pool.map ~jobs run_one [ false; true ] with
    | [ off; on ] -> (off, on)
    | _ -> assert false
  in
  let t =
    Table.create
      ~columns:
        [
          ("clustering", Table.Left);
          ("pair-lookups (k/s)", Table.Right);
          ("migrations per pair", Table.Right);
        ]
  in
  Table.add_row t [ "off"; Printf.sprintf "%.0f" off_kres; Printf.sprintf "%.2f" off_migs ];
  Table.add_row t [ "on"; Printf.sprintf "%.0f" on_kres; Printf.sprintf "%.2f" on_migs ];
  Format.pp_print_string ppf (Table.render t);
  Format.fprintf ppf "co-access pairs tracked: %d@." pairs

let rebalance ?(obs = Harness.no_obs) ~quick ~jobs ppf =
  Format.fprintf ppf
    "@.=== E11: packing pathology vs the runtime monitor (oscillating set, \
     8 MB) ===@.@.";
  let spec = Dir_workload.spec_for_data_kb ~kb:8192 () in
  let warmup = Harness.scaled ~quick 60_000_000 in
  let measure = Harness.scaled ~quick 80_000_000 in
  let oscillation = Figure4.oscillation_default in
  let cell policy =
    Harness.setup ~policy ~warmup ~measure ~oscillation
      ~collect_metrics:obs.Harness.metrics spec
  in
  let attach, occ_cell = occ_trackers obs 3 in
  let off, on, baseline =
    match
      Harness.run_cells ?attach ~jobs
        [
          cell { Coretime.Policy.default with Coretime.Policy.rebalance = false };
          cell Coretime.Policy.default;
          cell Coretime.Policy.baseline;
        ]
    with
    | [ a; b; c ] -> (a, b, c)
    | _ -> assert false
  in
  let t =
    Table.create
      ~columns:
        ([
           ("configuration", Table.Left);
           ("kres/s", Table.Right);
           ("moves", Table.Right);
           ("demotions", Table.Right);
         ]
        @ occ_columns obs @ lat_columns obs)
  in
  List.iter
    (fun (name, i, p) ->
      Table.add_row t
        ([
           name;
           Printf.sprintf "%.0f" (kres p);
           string_of_int p.Harness.rebalancer_moves;
           string_of_int p.Harness.rebalancer_demotions;
         ]
        @ occ_cell i @ lat_cells obs p))
    [
      ("without CoreTime", 2, baseline);
      ("CoreTime, monitor off", 0, off);
      ("CoreTime, monitor on", 1, on);
    ];
  Format.pp_print_string ppf (Table.render t);
  Format.fprintf ppf
    "first-fit packs the shrunken active set onto few cores; the monitor \
     spreads it back out.@."

let op_shipping ~quick ~jobs ppf =
  Format.fprintf ppf
    "@.=== E13: operation shipping by active message vs thread migration \
     ===@.@.";
  let sizes = if quick then [ 4096 ] else [ 2048; 4096; 8192; 12288 ] in
  let measure = Harness.scaled ~quick 40_000_000 in
  let cell kb policy =
    let spec = Dir_workload.spec_for_data_kb ~kb () in
    let warmup = Harness.scaled ~quick (40_000_000 + (kb * 2500)) in
    Harness.setup ~policy ~warmup ~measure spec
  in
  let cells =
    List.concat_map
      (fun kb ->
        [
          cell kb Coretime.Policy.baseline;
          cell kb Coretime.Policy.default;
          cell kb
            { Coretime.Policy.default with Coretime.Policy.op_shipping = true };
        ])
      sizes
  in
  let points = Harness.run_cells ~jobs cells in
  let t =
    Table.create
      ~columns:
        [
          ("data (KB)", Table.Right);
          ("baseline", Table.Right);
          ("thread migration", Table.Right);
          ("active messages", Table.Right);
          ("shipping gain", Table.Right);
        ]
  in
  let rec rows sizes points =
    match (sizes, points) with
    | [], [] -> ()
    | kb :: sizes, baseline :: migrate :: ship :: points ->
        Table.add_row t
          [
            string_of_int kb;
            Printf.sprintf "%.0f" (kres baseline);
            Printf.sprintf "%.0f" (kres migrate);
            Printf.sprintf "%.0f" (kres ship);
            Printf.sprintf "%.2fx" (kres ship /. kres migrate);
          ];
        rows sizes points
    | _ -> invalid_arg "Ablations.op_shipping: cell/size mismatch"
  in
  rows sizes points;
  Format.pp_print_string ppf (Table.render t);
  Format.fprintf ppf
    "hardware active messages cut the per-operation transport from ~2000 \
     to ~240 cycles (Section 6.1's prediction).@."

let thread_clustering ~quick ~jobs ppf =
  Format.fprintf ppf
    "@.=== E12: thread clustering vs O2 scheduling (8 MB, uniform) ===@.@.";
  let spec = Dir_workload.spec_for_data_kb ~kb:8192 () in
  let warmup = Harness.scaled ~quick 60_000_000 in
  let measure = Harness.scaled ~quick 40_000_000 in
  let cores = Config.cores Config.amd16 in
  (* all threads look up files in the same directories: flat similarity *)
  let similarity _ _ = 1.0 in
  let clustered_placement =
    O2_sched.Clustered_sched.assign ~threads:cores ~cores
      ~cores_per_chip:Config.amd16.Config.cores_per_chip ~similarity
  in
  let round_robin =
    O2_sched.Thread_sched.assign ~threads:cores ~cores
      ~cores_per_chip:Config.amd16.Config.cores_per_chip ~similarity
  in
  let cell ?placement policy =
    Harness.setup ~policy ~warmup ~measure ?placement spec
  in
  let base, clustered, o2 =
    match
      Harness.run_cells ~jobs
        [
          cell ~placement:round_robin Coretime.Policy.baseline;
          cell ~placement:clustered_placement Coretime.Policy.baseline;
          cell Coretime.Policy.default;
        ]
    with
    | [ a; b; c ] -> (a, b, c)
    | _ -> assert false
  in
  let t =
    Table.create
      ~columns:[ ("scheduler", Table.Left); ("kres/s", Table.Right) ]
  in
  List.iter
    (fun (name, p) -> Table.add_row t [ name; Printf.sprintf "%.0f" (kres p) ])
    [
      (O2_sched.Thread_sched.name, base);
      (O2_sched.Clustered_sched.name, clustered);
      ("O2 (CoreTime)", o2);
    ];
  Format.pp_print_string ppf (Table.render t);
  Format.fprintf ppf
    "with a flat working-set similarity matrix, thread clustering cannot \
     beat round-robin; scheduling objects can (Section 2).@."
