let hist_table hists =
  let t =
    O2_stats.Table.create
      ~columns:
        [
          ("histogram", O2_stats.Table.Left);
          ("count", O2_stats.Table.Right);
          ("mean", O2_stats.Table.Right);
          ("p50", O2_stats.Table.Right);
          ("p90", O2_stats.Table.Right);
          ("p99", O2_stats.Table.Right);
          ("p999", O2_stats.Table.Right);
          ("max", O2_stats.Table.Right);
        ]
  in
  List.iter
    (fun (name, h) ->
      if Hist.count h = 0 then
        O2_stats.Table.add_row t [ name; "0"; "-"; "-"; "-"; "-"; "-"; "-" ]
      else
        O2_stats.Table.add_row t
          [
            name;
            string_of_int (Hist.count h);
            Printf.sprintf "%.1f" (Hist.mean h);
            Printf.sprintf "%.0f" (Hist.p50 h);
            Printf.sprintf "%.0f" (Hist.p90 h);
            Printf.sprintf "%.0f" (Hist.p99 h);
            Printf.sprintf "%.0f" (Hist.p999 h);
            string_of_int (Hist.max_value h);
          ])
    hists;
  O2_stats.Table.render t

let counter_table counters =
  let t =
    O2_stats.Table.create
      ~columns:
        [ ("counter", O2_stats.Table.Left); ("value", O2_stats.Table.Right) ]
  in
  List.iter
    (fun (name, v) -> O2_stats.Table.add_row t [ name; string_of_int v ])
    counters;
  O2_stats.Table.render t

let gauge_table gauges =
  let t =
    O2_stats.Table.create
      ~columns:
        [ ("gauge", O2_stats.Table.Left); ("value", O2_stats.Table.Right) ]
  in
  List.iter
    (fun (name, v) -> O2_stats.Table.add_row t [ name; Printf.sprintf "%.3f" v ])
    gauges;
  O2_stats.Table.render t

let render ?(units = "cycles") ?(gauges = true) ?capture metrics =
  let buf = Buffer.create 2048 in
  let section title body =
    if body <> "" then begin
      Buffer.add_string buf ("-- " ^ title ^ " --\n");
      Buffer.add_string buf body;
      Buffer.add_char buf '\n'
    end
  in
  (match Metrics.hists metrics with
  | [] -> ()
  | hs -> section ("latency histograms (" ^ units ^ ")") (hist_table hs));
  (match Metrics.counters metrics with
  | [] -> ()
  | cs -> section "counters" (counter_table cs));
  (if gauges then
     match Metrics.gauges metrics with
     | [] -> ()
     | gs -> section "gauges (last monitor period)" (gauge_table gs));
  Option.iter
    (fun capture ->
      section "recorder"
        (Printf.sprintf "capture: %s by the ring bound\n"
           (Native_tel.summary capture)))
    capture;
  Buffer.contents buf

let print ?units ?gauges ?capture metrics =
  print_string (render ?units ?gauges ?capture metrics)
