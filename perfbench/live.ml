(** The live run: the host under test in this process, driven over real
    Unix-domain sockets by a lockstep load generator that speaks
    {!Live_net.Wire} itself.  One thread: the host is stepped from the
    generator's poll loop, so no other thread or process competes for
    the cores with the program being measured. *)

module Wire = Live_net.Wire
module Server = Live_net.Server
module Director = Live_net.Director
module Snapshot = Live_net.Snapshot
module Registry = Live_host.Registry

(* ------------------------------------------------------------------ *)
(* The host                                                            *)
(* ------------------------------------------------------------------ *)

type host = {
  socket : string;  (** where clients connect *)
  step : unit -> unit;  (** one non-blocking cycle of every host loop *)
  servers : Server.t array;  (** the single host, or the shards *)
  director : Director.t option;
}

let compile_exn (src : string) : Live_core.Program.t =
  (Live_workloads.Synthetic.compile_exn src).Live_surface.Compile.core

let config : Registry.config =
  { Registry.default_config with Registry.width = Workload.width }

(** Start the host: one {!Server}, or on a directed workload a
    {!Director} over two in-process shard servers, each compiling the
    app from its source as a separate process would.  The shards are
    stepped at top level by {!host.step} and, while the director waits
    on a shard reply, by the director's pump. *)
let start_host (w : Workload.t) (tr : Span.t) ~(dir : string) ~(source : string)
    : host =
  let sock name =
    Filename.concat dir (Printf.sprintf "%d-%s.sock" (Unix.getpid ()) name)
  in
  let step_server kind s () =
    Span.span tr kind (fun () -> ignore (Server.step ~timeout:0. s))
  in
  if not w.Workload.directed then begin
    let socket = sock "host" in
    let s = Server.create ~config ~socket (compile_exn source) in
    {
      socket;
      step = step_server Span.Server_step s;
      servers = [| s |];
      director = None;
    }
  end
  else begin
    let paths = [ sock "shard0"; sock "shard1" ] in
    let shards =
      Array.of_list
        (List.map
           (fun socket ->
             Server.create ~config ~socket (compile_exn source))
           paths)
    in
    let pump () = Array.iter (fun s -> step_server Span.Shard_step s ()) shards in
    let socket = sock "director" in
    let d = Director.create ~pump ~socket ~shards:paths () in
    {
      socket;
      step =
        (fun () ->
          pump ();
          Span.span tr Span.Director_step (fun () ->
              ignore (Director.step ~timeout:0. d)));
      servers = shards;
      director = Some d;
    }
  end

let stop_host (h : host) : unit =
  Option.iter Director.stop h.director;
  Array.iter Server.stop h.servers

(** The host's fleet digest, read in-process (the director sweeps its
    shards with [Observe]). *)
let host_digest (h : host) : string =
  match h.director with
  | Some d -> Director.fleet_digest d
  | None -> Registry.digest (Server.registry h.servers.(0))

(* ------------------------------------------------------------------ *)
(* Load-generator connections                                          *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  pending : Buffer.t;  (** received bytes not yet decoded *)
  out : Buffer.t;
  scratch : Buffer.t;
}

let connect (path : string) : conn =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  {
    fd;
    pending = Buffer.create 65536;
    out = Buffer.create 65536;
    scratch = Buffer.create 256;
  }

let close (c : conn) : unit = try Unix.close c.fd with Unix.Unix_error _ -> ()

exception Protocol of string

let protocol fmt = Printf.ksprintf (fun m -> raise (Protocol m)) fmt

(* ------------------------------------------------------------------ *)
(* Latency samples                                                     *)
(* ------------------------------------------------------------------ *)

(** Raw samples in seconds; percentiles are exact order statistics. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add (s : t) (v : float) : unit =
    if s.n = Array.length s.a then begin
      let b = Array.make (2 * s.n) 0. in
      Array.blit s.a 0 b 0 s.n;
      s.a <- b
    end;
    s.a.(s.n) <- v;
    s.n <- s.n + 1

  let count (s : t) = s.n

  (** The samples from the [lo]-th on. *)
  let since (s : t) (lo : int) : t = { a = Array.sub s.a lo (s.n - lo); n = s.n - lo }

  (** Nearest-rank percentile: the smallest sample with at least [p]
      percent of the samples at or below it.  [nan] when empty. *)
  let percentile (s : t) (p : float) : float =
    if s.n = 0 then nan
    else begin
      let b = Array.sub s.a 0 s.n in
      Array.sort compare b;
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int s.n)) in
      b.(max 0 (min (s.n - 1) (rank - 1)))
    end
end

(* ------------------------------------------------------------------ *)
(* The load generator                                                  *)
(* ------------------------------------------------------------------ *)

(** What the editor connection is waiting for. *)
type editor =
  | Idle
  | Editing of {
      start : float;
      ordinal : int;  (** the edit's 1-based ordinal *)
      banner : string;  (** the prefix every frame's row 0 must show *)
      mutable acked : bool;
      mutable waiting : int;  (** sessions whose frame does not show it yet *)
    }
  | Rebalancing of { span : int }

(** What a run accumulates over all its passes. *)
type acc = {
  taps_lat : Samples.t;
  edits_lat : Samples.t;
  mutable bytes_in : int;  (** bytes the host wrote to the two connections *)
  mutable frames_in : int;
  mutable taps_failed : int;  (** taps answered with a backpressure error *)
  mutable edits_failed : int;
  mutable rebalances_failed : int;
}

let acc () : acc =
  {
    taps_lat = Samples.create ();
    edits_lat = Samples.create ();
    bytes_in = 0;
    frames_in = 0;
    taps_failed = 0;
    edits_failed = 0;
    rebalances_failed = 0;
  }

(** One pass: a fresh host and fleet, driven for the workload's
    [pass_rounds]. *)
type t = {
  w : Workload.t;
  inp : Workload.inputs;
  tr : Span.t;
  host : host;
  tapc : conn;
  edc : conn;
  slot_of_id : (int, int) Hashtbl.t;
  id_of_slot : int array;  (** host session id of each slot, from its [Attach] *)
  frames : string array array;  (** each slot's client-reconstructed frame *)
  inflight : float array;  (** write time of the slot's tap in flight, or [nan] *)
  sent : int array;  (** taps each slot has sent *)
  shown : int array;  (** ordinal of the last edit the slot's frame shows *)
  mutable attached : int;
  mutable outstanding : int;  (** taps in flight *)
  mutable editor : editor;
  mutable edits : int;  (** edits begun *)
  mutable rebalances : int;
  mutable rebalance_acks : string list;  (** newest first *)
  acc : acc;
}

let read_chunk = Bytes.create 65536

(* Apply a delta to a slot's frame and retire whatever it answers. *)
let on_delta (lg : t) ~(session : int) ~(height : int) ~(acks : int)
    ~(rows : (int * string) list) (now : float) : unit =
  let slot =
    match Hashtbl.find_opt lg.slot_of_id session with
    | Some s -> s
    | None -> protocol "delta for unknown session %d" session
  in
  lg.frames.(slot) <- Wire.apply_delta lg.frames.(slot) ~height ~rows;
  if acks > 0 then begin
    if acks > 1 || Float.is_nan lg.inflight.(slot) then
      protocol "session %d: %d acks with %s tap in flight" session acks
        (if Float.is_nan lg.inflight.(slot) then "no" else "one");
    Samples.add lg.acc.taps_lat (now -. lg.inflight.(slot));
    lg.inflight.(slot) <- nan;
    lg.outstanding <- lg.outstanding - 1
  end;
  match lg.editor with
  | Editing e when e.waiting > 0 && lg.shown.(slot) < e.ordinal ->
      let f = lg.frames.(slot) in
      if Array.length f > 0 && String.starts_with ~prefix:e.banner f.(0) then begin
        lg.shown.(slot) <- e.ordinal;
        e.waiting <- e.waiting - 1
      end
  | _ -> ()

let finish_edit (lg : t) (now : float) : unit =
  match lg.editor with
  | Editing e when e.acked && e.waiting = 0 ->
      Samples.add lg.acc.edits_lat (now -. e.start);
      lg.editor <- Idle
  | _ -> ()

let on_editor_reply (lg : t) (f : Wire.host_frame) (now : float) : unit =
  match (lg.editor, f) with
  | Editing e, Wire.Ack _ ->
      e.acked <- true;
      finish_edit lg now
  | Editing _, Wire.Error { code = 6; msg } ->
      Printf.eprintf "perfbench: edit refused: %s\n%!" msg;
      lg.acc.edits_failed <- lg.acc.edits_failed + 1;
      lg.editor <- Idle
  | Rebalancing r, Wire.Ack { info } ->
      Span.leave lg.tr r.span;
      lg.rebalance_acks <- info :: lg.rebalance_acks;
      lg.editor <- Idle
  | Rebalancing r, Wire.Error { code = 6; msg } ->
      Span.leave lg.tr r.span;
      Printf.eprintf "perfbench: rebalance refused: %s\n%!" msg;
      lg.acc.rebalances_failed <- lg.acc.rebalances_failed + 1;
      lg.editor <- Idle
  | _, f -> protocol "editor connection: unexpected %s" (Format.asprintf "%a" Wire.pp (Wire.Host f))

let on_frame (lg : t) ~(editor : bool) (f : Wire.host_frame) (now : float) :
    unit =
  match f with
  | Wire.Delta { session; height; acks; rows } ->
      on_delta lg ~session ~height ~acks ~rows now;
      finish_edit lg now
  | Wire.Attach { session; width = _; frame } when not editor ->
      let slot = lg.attached in
      if slot >= lg.w.Workload.fleet then protocol "more attaches than sessions";
      Hashtbl.replace lg.slot_of_id session slot;
      lg.id_of_slot.(slot) <- session;
      lg.frames.(slot) <- Wire.rows_of_text frame;
      lg.attached <- slot + 1
  | Wire.Error { code = 2; msg } when not editor -> (
      (* backpressure: the message leads with the session id *)
      match Scanf.sscanf_opt msg "%d " (fun id -> id) with
      | Some id when Hashtbl.mem lg.slot_of_id id ->
          let slot = Hashtbl.find lg.slot_of_id id in
          lg.inflight.(slot) <- nan;
          lg.outstanding <- lg.outstanding - 1;
          lg.acc.taps_failed <- lg.acc.taps_failed + 1
      | _ -> protocol "unattributable rejection: %s" msg)
  | f when editor -> on_editor_reply lg f now
  | f -> protocol "tap connection: unexpected %s" (Format.asprintf "%a" Wire.pp (Wire.Host f))

(* Read whatever the connection has and handle every complete frame. *)
let drain (lg : t) (c : conn) ~(editor : bool) : unit =
  let rec read () =
    match Unix.read c.fd read_chunk 0 (Bytes.length read_chunk) with
    | 0 -> protocol "host closed the connection"
    | n ->
        lg.acc.bytes_in <- lg.acc.bytes_in + n;
        Buffer.add_subbytes c.pending read_chunk 0 n;
        if n = Bytes.length read_chunk then read ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ()
  in
  read ();
  if Buffer.length c.pending > 0 then begin
    let data = Buffer.contents c.pending in
    let off = ref 0 in
    let continue = ref true in
    while !continue do
      match Span.span lg.tr Span.Wire_decode (fun () -> Wire.decode ~off:!off data) with
      | Wire.Frame (Wire.Host f, k) ->
          off := !off + k;
          lg.acc.frames_in <- lg.acc.frames_in + 1;
          on_frame lg ~editor f (Span.now ())
      | Wire.Frame (Wire.Client _, _) -> protocol "client-tagged frame from the host"
      | Wire.Corrupt m -> protocol "corrupt frame from the host: %s" m
      | Wire.Need_more -> continue := false
    done;
    Buffer.clear c.pending;
    Buffer.add_substring c.pending data !off (String.length data - !off)
  end

(** One poll: step the host, then take in what it wrote. *)
let poll (lg : t) : unit =
  lg.host.step ();
  drain lg lg.tapc ~editor:false;
  drain lg lg.edc ~editor:true

(* Write the connection's staged bytes through, polling the host
   whenever the socket is full. *)
let flush (lg : t) (c : conn) : unit =
  let data = Buffer.contents c.out in
  Buffer.clear c.out;
  let off = ref 0 in
  while !off < String.length data do
    match Unix.write_substring c.fd data !off (String.length data - !off) with
    | k -> off := !off + k
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        poll lg
  done

let send (lg : t) (c : conn) (f : Wire.client_frame) : unit =
  Span.span lg.tr Span.Wire_encode (fun () ->
      Wire.encode_into ~scratch:c.scratch c.out (Wire.Client f))

(** Start the host, connect the tap and editor connections, spawn the
    fleet with one [Hello] and wait until every session is attached. *)
let setup (w : Workload.t) (inp : Workload.inputs) (tr : Span.t) (acc : acc)
    ~(dir : string) : t =
  let host = start_host w tr ~dir ~source:inp.Workload.boot_source in
  let lg =
    {
      w;
      inp;
      tr;
      host;
      tapc = connect host.socket;
      edc = connect host.socket;
      slot_of_id = Hashtbl.create (2 * w.fleet);
      id_of_slot = Array.make w.fleet (-1);
      frames = Array.make w.fleet [||];
      inflight = Array.make w.fleet nan;
      sent = Array.make w.fleet 0;
      shown = Array.make w.fleet 0;
      attached = 0;
      outstanding = 0;
      editor = Idle;
      edits = 0;
      rebalances = 0;
      rebalance_acks = [];
      acc;
    }
  in
  send lg lg.tapc (Wire.Hello { client = "perfbench"; sessions = w.fleet });
  flush lg lg.tapc;
  while lg.attached < w.fleet do
    poll lg
  done;
  lg

let teardown (lg : t) : unit =
  close lg.tapc;
  close lg.edc;
  stop_host lg.host

(* Write the round's taps: every tapping slot sends its next tap. *)
let send_taps (lg : t) (round : int) : unit =
  let w = lg.w in
  let slots = ref [] in
  for slot = w.Workload.fleet - 1 downto 0 do
    if Workload.taps_in_round w slot round then begin
      let j = lg.sent.(slot) in
      send lg lg.tapc
        (Wire.Event
           {
             session = lg.id_of_slot.(slot);
             ev =
               Wire.Ev_tap
                 {
                   x = Workload.tap_x lg.inp ~slot ~j;
                   y = Workload.tap_y lg.inp ~slot ~j;
                 };
           });
      slots := slot :: !slots
    end
  done;
  let t = Span.now () in
  List.iter
    (fun slot ->
      lg.sent.(slot) <- lg.sent.(slot) + 1;
      lg.inflight.(slot) <- t;
      lg.outstanding <- lg.outstanding + 1)
    !slots;
  flush lg lg.tapc

(* Hand the next edit's source text to the compiler and ship the
   result as an [Update]; the edit's latency starts here. *)
let send_edit (lg : t) : unit =
  let k = lg.edits in
  lg.edits <- k + 1;
  let start = Span.now () in
  let text = lg.inp.Workload.edit_texts.(k mod Workload.edit_pool) in
  let program = Span.span lg.tr Span.Surface_compile (fun () -> compile_exn text) in
  let wire =
    Span.span lg.tr Span.Program_encode (fun () -> Snapshot.program_to_string program)
  in
  let visible = lg.w.Workload.edit = Workload.Visible in
  lg.editor <-
    Editing
      {
        start;
        ordinal = k + 1;
        banner =
          Printf.sprintf "fleet app v%d " (Workload.version_after lg.w (k + 1));
        acked = false;
        waiting = (if visible then lg.w.Workload.fleet else 0);
      };
  send lg lg.edc (Wire.Update { program = wire });
  flush lg lg.edc

(* VmHWM of this process, in MB. *)
let peak_rss_mb () : float =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line -> (
        match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
        | Some kb -> float_of_int kb /. 1024.
        | None -> scan ())
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let busy (lg : t) : bool = match lg.editor with Idle -> false | _ -> true

let rebalance (lg : t) : unit =
  lg.rebalances <- lg.rebalances + 1;
  let span = Span.enter lg.tr Span.Rebalance in
  lg.editor <- Rebalancing { span };
  send lg lg.edc (Wire.Rebalance { count = lg.w.Workload.rebalance_count });
  flush lg lg.edc;
  while busy lg do
    poll lg
  done

(** Run the pass's [pass_rounds] rounds; returns their wall time. *)
let timed (lg : t) : float =
  let root = Span.enter lg.tr Span.Timed in
  let t0 = Span.now () in
  for r = 0 to lg.w.Workload.pass_rounds - 1 do
    send_taps lg r;
    if Workload.edit_round lg.w r then send_edit lg;
    while lg.outstanding > 0 || busy lg do
      poll lg
    done;
    if Workload.rebalance_round lg.w r then rebalance lg
  done;
  let dt = Span.now () -. t0 in
  Span.leave lg.tr root;
  dt
