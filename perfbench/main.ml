(** perfbench: one run of one named workload against the live host.

    {v
    perfbench --workload taps|edits|directed --seed N --seconds S --trace 0|1
    v}

    Runs passes of lockstep rounds for [S] seconds, each on a host and
    fleet set up afresh, and checks every pass's outputs against
    values derived apart from the host and against a direct replay of
    the pass's trace.  The last line of standard output is one JSON
    object: [correct], [attempted], [failed] and the end-to-end metrics
    ([--trace 0]) or the per-layer metrics ([--trace 1]).  See
    README.md for the workloads and every metric's definition. *)

module Server = Live_net.Server
module Director = Live_net.Director
module Broadcast = Live_host.Broadcast

let out_dir = Filename.concat "perfbench" "_out"

(** Passes every run makes, however fast the machine: at least five
    set-ups and a hundred edits. *)
let min_passes = 5

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2)
    fmt

let median (l : float list) : float =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mkdir_p (path : string) : unit =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path

(** Every per-layer counter a traced run reads off the live host. *)
type counts = {
  c_frames_out : int;  (** frames written by the servers (the shards on directed) *)
  c_delta_rows : int;
  c_full_rows : int;
  c_dir_frames_out : int;
  c_moved : int;
  c_alloc : float;  (** bytes *)
  c_major : int;
}

let counts (h : Live.host) : counts =
  let sum f = Array.fold_left (fun acc s -> acc + f (Server.stats s)) 0 h.Live.servers in
  let d = Option.map Director.stats h.Live.director in
  let dget f = match d with Some s -> f s | None -> 0 in
  {
    c_frames_out = sum (fun s -> s.Server.frames_out);
    c_delta_rows = sum (fun s -> s.Server.delta_rows_sent);
    c_full_rows = sum (fun s -> s.Server.full_rows);
    c_dir_frames_out = dget (fun s -> s.Director.frames_out);
    c_moved = dget (fun s -> s.Director.sessions_moved);
    c_alloc = Gc.allocated_bytes ();
    c_major = (Gc.quick_stat ()).Gc.major_collections;
  }

let zero_counts =
  {
    c_frames_out = 0;
    c_delta_rows = 0;
    c_full_rows = 0;
    c_dir_frames_out = 0;
    c_moved = 0;
    c_alloc = 0.;
    c_major = 0;
  }

let map2_counts (fi : int -> int -> int) (ff : float -> float -> float) (a : counts)
    (b : counts) : counts =
  {
    c_frames_out = fi a.c_frames_out b.c_frames_out;
    c_delta_rows = fi a.c_delta_rows b.c_delta_rows;
    c_full_rows = fi a.c_full_rows b.c_full_rows;
    c_dir_frames_out = fi a.c_dir_frames_out b.c_dir_frames_out;
    c_moved = fi a.c_moved b.c_moved;
    c_alloc = ff a.c_alloc b.c_alloc;
    c_major = fi a.c_major b.c_major;
  }

let add_counts = map2_counts ( + ) ( +. )
let sub_counts = map2_counts ( - ) ( -. )

(** One pass's timing figures.  A run reports the median of each over
    its passes: every pass is the same work, and a stretch of slow
    machine covering less than half of the run does not move the
    median (README.md, Steadiness). *)
type figures = {
  events_per_s : float;
  event_p50_ms : float;
  event_p90_ms : float;
  edit_p50_ms : float;
  edit_p90_ms : float;
}

(* The figures of a pass whose rounds took [pass_dt] and whose samples
   are the ones from the [taps0]-th and [edits0]-th on. *)
let figures (acc : Live.acc) ~(pass_dt : float) ~(taps0 : int) ~(edits0 : int) :
    figures =
  let taps = Live.Samples.since acc.Live.taps_lat taps0 in
  let edits = Live.Samples.since acc.Live.edits_lat edits0 in
  let ms s p = Live.Samples.percentile s p *. 1e3 in
  {
    events_per_s = float_of_int (Live.Samples.count taps) /. pass_dt;
    event_p50_ms = ms taps 50.;
    event_p90_ms = ms taps 90.;
    edit_p50_ms = ms edits 50.;
    edit_p90_ms = ms edits 90.;
  }

let json_metrics (ms : (string * float * string) list) : string =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         let v = if Float.is_finite v then v else 0. in
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       ms)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "taps|edits|directed");
      ("--seed", Arg.Set_int seed, "N  input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S  length of the timed phase (>= 1)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> die "unexpected argument %S" a) usage;
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None -> die "unknown workload %S (taps, edits or directed)" !workload
  in
  if !seed < 0 then die "--seed must be given, >= 0";
  if !seconds < 1 then die "--seconds must be given, >= 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let traced = !trace = 1 in
  mkdir_p out_dir;
  let inp = Workload.inputs w ~seed:!seed in
  let tr = Span.create () in
  (* ---- the timed passes, each checked as it ends ---- *)
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let acc = Live.acc () in
  let passes = ref 0 and dt = ref 0. in
  let moved = ref zero_counts and host_bytes = ref 0 and frames_in = ref 0 in
  let taps_sent = ref 0 and edits = ref 0 and rebalances = ref 0 in
  let digests = ref [] and rss_mb = ref nan and per_pass = ref [] in
  let setup_times = ref [] in
  Gc.full_major ();
  while !passes < min_passes || !dt < float_of_int !seconds do
    let t0 = Span.now () in
    let lg = Live.setup w inp tr acc ~dir:out_dir in
    setup_times := (Span.now () -. t0) :: !setup_times;
    let c0 = counts lg.Live.host in
    let bytes0 = acc.Live.bytes_in and frames0 = acc.Live.frames_in in
    let taps0 = Live.Samples.count acc.Live.taps_lat in
    let failed0 = acc.Live.taps_failed in
    let edits0 = Live.Samples.count acc.Live.edits_lat in
    tr.Span.on <- traced;
    let pass_dt =
      try Live.timed lg
      with Live.Protocol m -> die "protocol failure during pass %d: %s" !passes m
    in
    tr.Span.on <- false;
    moved := add_counts !moved (sub_counts (counts lg.Live.host) c0);
    host_bytes := !host_bytes + acc.Live.bytes_in - bytes0;
    frames_in := !frames_in + acc.Live.frames_in - frames0;
    incr passes;
    dt := !dt +. pass_dt;
    let f = figures acc ~pass_dt ~taps0 ~edits0 in
    per_pass := f :: !per_pass;
    Printf.printf
      "pass %d: set-up %.2f ms, %.3f s, %.0f events/s, event p50/p90 %.2f/%.2f ms, \
       edit p50/p90 %.2f/%.2f ms\n%!"
      !passes (1e3 *. List.hd !setup_times) pass_dt f.events_per_s f.event_p50_ms
      f.event_p90_ms f.edit_p50_ms f.edit_p90_ms;
    (* peak RSS at a fixed amount of work: the set-ups and one pass *)
    if !passes = 1 then rss_mb := Live.peak_rss_mb ();
    let fail fmt = Printf.ksprintf (fun m -> fail "pass %d: %s" !passes m) fmt in
    let version = Workload.version_after w lg.Live.edits in
    List.iter (fail "%s")
      (Check.fleet w inp ~frames:lg.Live.frames ~sent:lg.Live.sent ~version);
    if not (Check.self_test inp ~frames:lg.Live.frames ~sent:lg.Live.sent ~version)
    then fail "self-test: a corrupted expected count passed the frame check";
    let sent = Array.fold_left ( + ) 0 lg.Live.sent in
    let answered =
      Live.Samples.count acc.Live.taps_lat - taps0 + acc.Live.taps_failed - failed0
    in
    if answered <> sent then fail "%d taps sent, %d answered" sent answered;
    taps_sent := !taps_sent + sent;
    edits := !edits + lg.Live.edits;
    rebalances := !rebalances + lg.Live.rebalances;
    digests := Live.host_digest lg.Live.host :: !digests;
    (match lg.Live.host.Live.director with
    | None -> ()
    | Some d ->
        let s = Director.stats d in
        if
          s.Director.digest_failures <> 0
          || s.Director.digest_checks <> lg.Live.rebalances
        then
          fail "rebalance digest checks: %d of %d failed, %d rebalances"
            s.Director.digest_failures s.Director.digest_checks lg.Live.rebalances;
        (* the director's own strict before/after digest comparison ran
           and held: its Ack says so ("... digest <md5> held") *)
        List.iter
          (fun info ->
            if not (String.ends_with ~suffix:" held" info) then
              fail "rebalance without a strict digest check: %s" info)
          lg.Live.rebalance_acks);
    Live.teardown lg;
    (* every pass sets up on a collected heap, which the dropped fleet
       does not hold on to *)
    Gc.full_major ()
  done;
  (* ---- the direct replay of one pass: every pass ran its trace ---- *)
  tr.Span.on <- traced;
  let rep = Replay.run w inp tr ~rounds:w.Workload.pass_rounds in
  tr.Span.on <- false;
  List.iter (fail "replay: %s") rep.Replay.failures;
  List.iteri
    (fun i digest ->
      if digest <> rep.Replay.digest then
        fail "pass %d: fleet digest %s differs from the direct replay's %s"
          (!passes - i) digest rep.Replay.digest)
    !digests;
  if rep.Replay.events * !passes <> !taps_sent then
    fail "replay ran %d taps a pass, the live run %d in %d passes" rep.Replay.events
      !taps_sent !passes;
  let failures = List.rev !failures in
  List.iter (fun m -> prerr_endline ("perfbench: check failed: " ^ m)) failures;
  let attempted = !taps_sent + !edits + !rebalances in
  let failed = acc.Live.taps_failed + acc.Live.edits_failed + acc.Live.rebalances_failed in
  Printf.printf
    "workload %s seed %d: %d passes of %d rounds in %.3f s; attempted/failed: \
     taps %d/%d, %s edits %d/%d, rebalances %d/%d; samples: %d tap latencies, \
     %d edit latencies; fleet digest %s\n"
    w.Workload.name !seed !passes w.Workload.pass_rounds !dt !taps_sent
    acc.Live.taps_failed
    (match w.Workload.edit with Workload.Cold -> "cold" | Workload.Visible -> "visible")
    !edits acc.Live.edits_failed !rebalances acc.Live.rebalances_failed
    (Live.Samples.count acc.Live.taps_lat)
    (Live.Samples.count acc.Live.edits_lat)
    rep.Replay.digest;
  let answered = Live.Samples.count acc.Live.taps_lat + acc.Live.taps_failed in
  let events = float_of_int answered in
  let kev = events /. 1000. in
  let of_passes field = median (List.map field !per_pass) in
  let metrics =
    if not traced then
      [
        ("setup_s", median !setup_times, "s");
        ("events_per_s", of_passes (fun f -> f.events_per_s), "1/s");
        ("event_p50_ms", of_passes (fun f -> f.event_p50_ms), "ms");
        ("event_p90_ms", of_passes (fun f -> f.event_p90_ms), "ms");
        ("edit_p50_ms", of_passes (fun f -> f.edit_p50_ms), "ms");
        ("edit_p90_ms", of_passes (fun f -> f.edit_p90_ms), "ms");
        ("peak_rss_mb", !rss_mb, "MB");
        ("host_bytes_per_event", float_of_int !host_bytes /. events, "B");
      ]
    else begin
      let agg = Span.aggregate tr in
      let mean k scale =
        let a = agg k in
        if a.Span.count = 0 then 0. else a.Span.total /. float_of_int a.Span.count *. scale
      in
      let per_kev k = (agg k).Span.total *. 1e3 /. kev in
      let reports = rep.Replay.reports in
      let rmean f =
        match reports with
        | [] -> 0.
        | _ ->
            List.fold_left (fun acc r -> acc +. f r) 0. reports
            /. float_of_int (List.length reports)
      in
      let dint f = float_of_int (f !moved) in
      let spans_file =
        Filename.concat out_dir
          (Printf.sprintf "spans-%s-seed%d.tsv" w.Workload.name !seed)
      in
      Span.write tr spans_file;
      Printf.printf "spans written to %s\n" spans_file;
      [
        ("server.step_ms_per_kev", per_kev Span.Server_step, "ms");
        ("server.frames_out_per_event", dint (fun c -> c.c_frames_out) /. events, "count");
        ( "server.delta_row_ratio",
          dint (fun c -> c.c_delta_rows) /. dint (fun c -> c.c_full_rows),
          "ratio" );
        ("wire.encode_us_per_frame", mean Span.Wire_encode 1e6, "us");
        ( "wire.decode_us_per_frame",
          (agg Span.Wire_decode).Span.total *. 1e6 /. float_of_int !frames_in,
          "us" );
        ("director.self_ms_per_kev", (agg Span.Director_step).Span.self *. 1e3 /. kev, "ms");
        ("director.frames_per_event", dint (fun c -> c.c_dir_frames_out) /. events, "count");
        ( "director.rebalance_us_per_session",
          (agg Span.Rebalance).Span.total *. 1e6 /. dint (fun c -> c.c_moved),
          "us" );
        ("shard.step_ms_per_kev", per_kev Span.Shard_step, "ms");
        ("surface.compile_ms", mean Span.Surface_compile 1e3, "ms");
        ("snapshot.program_encode_ms", mean Span.Program_encode 1e3, "ms");
        ("snapshot.program_decode_ms", mean Span.Program_decode 1e3, "ms");
        ("snapshot.session_roundtrip_us", mean Span.Session_roundtrip 1e6, "us");
        ( "snapshot.session_bytes",
          float_of_int rep.Replay.roundtrip_bytes /. float_of_int rep.Replay.roundtrips,
          "B" );
        ("broadcast.typecheck_ms", rmean (fun r -> r.Broadcast.typecheck_ns) /. 1e6, "ms");
        ("broadcast.diff_ms", rmean (fun r -> r.Broadcast.diff_ns) /. 1e6, "ms");
        ("broadcast.compile_ms", rmean (fun r -> r.Broadcast.compile_ns) /. 1e6, "ms");
        ("broadcast.fanout_ms", rmean (fun r -> r.Broadcast.fanout_ns) /. 1e6, "ms");
        ( "broadcast.dirty_defs",
          rmean (fun r -> float_of_int r.Broadcast.dirty_defs),
          "count" );
        ("registry.offer_us", mean Span.Registry_offer 1e6, "us");
        ( "scheduler.serve_us_per_event",
          (agg Span.Scheduler_drain).Span.total *. 1e6 /. float_of_int rep.Replay.events,
          "us" );
        ("session.screenshot_us", mean Span.Screenshot_tap 1e6, "us");
        ("session.repaint_after_edit_us", mean Span.Screenshot_edit 1e6, "us");
        ("wire.delta_us_per_frame", mean Span.Wire_delta 1e6, "us");
        ( "ledger.direct_events_per_s",
          float_of_int rep.Replay.events /. rep.Replay.seconds,
          "1/s" );
        ("gc.alloc_kb_per_event", !moved.c_alloc /. 1024. /. events, "KB");
        ( "gc.major_collections",
          dint (fun c -> c.c_major) /. float_of_int !passes,
          "count" );
        ( "loadgen.self_ms_per_kev",
          ((agg Span.Timed).Span.self +. (agg Span.Rebalance).Span.self) *. 1e3 /. kev,
          "ms" );
        ("traced.events_per_s", of_passes (fun f -> f.events_per_s), "1/s");
      ]
    end
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failures = []) attempted failed (json_metrics metrics);
  exit (if failures = [] then 0 else 1)
