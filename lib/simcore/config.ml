type t = {
  name : string;
  chips : int;
  cores_per_chip : int;
  ghz : float;
  line_bytes : int;
  page_bytes : int;
  l1_bytes : int;
  l1_latency : int;
  l2_bytes : int;
  l2_latency : int;
  l3_bytes : int;
  l3_latency : int;
  remote_same_chip : int;
  remote_hop : int;
  dram_latency : int;
  dram_hop : int;
  dram_service : int;
  invalidate_cycles : int;
  migration_save : int;
  migration_xfer : int;
  migration_restore : int;
  poll_interval : int;
  amsg_send : int;
  amsg_wire : int;
  amsg_dispatch : int;
}

let cores t = t.chips * t.cores_per_chip
let chip_of_core t core = core / t.cores_per_chip

let migration_cycles t =
  t.migration_save + t.migration_xfer + t.migration_restore
  + (t.poll_interval / 2)

let amsg_cycles t = t.amsg_send + t.amsg_wire + t.amsg_dispatch

let on_chip_capacity t =
  (cores t * t.l2_bytes) + (t.chips * t.l3_bytes)

let per_core_budget t = t.l2_bytes + (t.l3_bytes / t.cores_per_chip)

let kb n = n * 1024
let mb n = n * 1024 * 1024

let amd16 =
  {
    name = "amd16";
    chips = 4;
    cores_per_chip = 4;
    ghz = 2.0;
    line_bytes = 64;
    page_bytes = 4096;
    l1_bytes = kb 64;
    l1_latency = 3;
    l2_bytes = kb 512;
    l2_latency = 14;
    l3_bytes = mb 2;
    l3_latency = 75;
    remote_same_chip = 127;
    remote_hop = 60;
    (* Local-bank load = 202 + 14 service = 216 cycles; the most distant
       bank (2 hops) = 336, the paper's measured extreme. One controller
       per chip streaming a line every 14 cycles is ~37 GB/s aggregate at
       2 GHz — the "high off-chip memory bandwidth" of Section 6.1. *)
    dram_latency = 202;
    dram_hop = 60;
    dram_service = 14;
    invalidate_cycles = 90;
    migration_save = 500;
    migration_xfer = 1000;
    migration_restore = 400;
    poll_interval = 200;
    (* save + xfer + restore + poll/2 = 2000, the paper's measured cost *)
    amsg_send = 60;
    amsg_wire = 130;
    amsg_dispatch = 60;
  }

let small4 =
  {
    amd16 with
    name = "small4";
    chips = 1;
    cores_per_chip = 4;
    l1_bytes = kb 1;
    l2_bytes = kb 4;
    l3_bytes = kb 16;
    page_bytes = 256;
    (* everything about this machine is miniature, migration included *)
    migration_save = 50;
    migration_xfer = 100;
    migration_restore = 50;
    poll_interval = 0;
  }

let future64 =
  {
    amd16 with
    name = "future64";
    chips = 8;
    cores_per_chip = 8;
    l1_bytes = kb 64;
    l2_bytes = mb 1;
    l3_bytes = mb 4;
    (* More cores contending for relatively less off-chip bandwidth, and
       hardware support (active messages) making migration cheap. *)
    dram_service = 120;
    migration_save = 150;
    migration_xfer = 250;
    migration_restore = 100;
    poll_interval = 0;
  }

let validate t =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  if t.chips <= 0 || t.cores_per_chip <= 0 then fail "no cores"
  else if t.line_bytes <= 0 || t.line_bytes land (t.line_bytes - 1) <> 0 then
    fail "line_bytes must be a positive power of two"
  else if t.page_bytes < t.line_bytes || t.page_bytes mod t.line_bytes <> 0
  then fail "page_bytes must be a multiple of line_bytes"
  else if
    t.l1_bytes mod t.line_bytes <> 0
    || t.l2_bytes mod t.line_bytes <> 0
    || t.l3_bytes mod t.line_bytes <> 0
  then fail "cache capacities must be whole lines"
  else if t.l1_bytes <= 0 || t.l2_bytes <= 0 || t.l3_bytes <= 0 then
    fail "cache capacities must be positive"
  else if
    t.l1_latency < 0 || t.l2_latency < 0 || t.l3_latency < 0
    || t.dram_latency < 0 || t.remote_same_chip < 0
  then fail "latencies must be non-negative"
  else if t.ghz <= 0.0 then fail "ghz must be positive"
  else if t.amsg_send < 0 || t.amsg_wire < 0 || t.amsg_dispatch < 0 then
    fail "active-message costs must be non-negative"
  else Ok ()

let pp ppf t =
  Format.fprintf ppf
    "@[<v>%s: %d chips x %d cores @@ %.1f GHz@,\
     line %dB; L1 %dKB/%dcyc L2 %dKB/%dcyc L3 %dKB/%dcyc (per chip)@,\
     remote %d+%d/hop; dram %d+%d/hop, %d cyc/line service@,\
     migration %d cycles@]"
    t.name t.chips t.cores_per_chip t.ghz t.line_bytes (t.l1_bytes / 1024)
    t.l1_latency (t.l2_bytes / 1024) t.l2_latency (t.l3_bytes / 1024)
    t.l3_latency t.remote_same_chip t.remote_hop t.dram_latency t.dram_hop
    t.dram_service (migration_cycles t)
