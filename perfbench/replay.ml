(** The direct replay: the live run's trace — the same rounds, taps and
    edits — applied to an in-process {!Live_host.Registry} +
    {!Live_host.Scheduler} + {!Live_host.Broadcast} fleet with no
    sockets.  Its fleet digest is the reference the live host must
    match (transport invariance), and in the traced run its spans are
    the layer ledger: every call the host makes per event and per edit,
    timed one layer at a time. *)

module Registry = Live_host.Registry
module Scheduler = Live_host.Scheduler
module Broadcast = Live_host.Broadcast
module Session = Live_runtime.Session
module Wire = Live_net.Wire
module Snapshot = Live_net.Snapshot

type t = {
  digest : string;
  events : int;  (** taps replayed *)
  seconds : float;  (** wall time of the replayed rounds *)
  reports : Broadcast.report list;  (** one per edit, oldest first *)
  roundtrips : int;  (** sessions sent through a snapshot round trip *)
  roundtrip_bytes : int;  (** their snapshot texts' total length *)
  failures : string list;  (** anything that went wrong, oldest first *)
}

let run (w : Workload.t) (inp : Workload.inputs) (tr : Span.t) ~(rounds : int) :
    t =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let reg =
    Registry.create ~config:Live.config (Live.compile_exn inp.Workload.boot_source)
  in
  let ids =
    match Registry.spawn_many reg w.Workload.fleet with
    | Ok ids -> Array.of_list ids
    | Error e ->
        invalid_arg ("replay spawn: " ^ Live_core.Machine.error_to_string e)
  in
  let sched = Scheduler.create reg in
  let session id = Option.get (Registry.session reg id) in
  (* each session's last frame, the baseline its next delta is cut from *)
  let last = Array.map (fun id -> Wire.rows_of_text (Session.screenshot (session id))) ids in
  let repaint kind slot =
    let text = Span.span tr kind (fun () -> Session.screenshot (session ids.(slot))) in
    Span.span tr Span.Wire_delta (fun () ->
        let rows = Wire.rows_of_text text in
        ignore (Wire.delta_of_frames ~prev:last.(slot) rows);
        last.(slot) <- rows)
  in
  let sent = Array.make w.fleet 0 in
  let reports = ref [] in
  let edits = ref 0 in
  let events = ref 0 in
  let root = Span.enter tr Span.Replay in
  let t0 = Span.now () in
  for r = 0 to rounds - 1 do
    let edit = Workload.edit_round w r in
    if edit then begin
      let text = inp.Workload.edit_texts.(!edits mod Workload.edit_pool) in
      incr edits;
      (* the program exactly as the host receives it: compiled, then
         through its canonical wire text *)
      let wire = Snapshot.program_to_string (Live.compile_exn text) in
      match Span.span tr Span.Program_decode (fun () -> Snapshot.program_of_string wire) with
      | Error m -> fail "edit %d: program text does not parse: %s" !edits m
      | Ok p -> (
          match Span.span tr Span.Broadcast_update (fun () -> Broadcast.update reg p) with
          | Ok rep -> reports := rep :: !reports
          | Error e ->
              fail "edit %d refused: %s" !edits (Live_core.Machine.error_to_string e))
    end;
    let tapped = ref [] in
    for slot = w.fleet - 1 downto 0 do
      if Workload.taps_in_round w slot r then begin
        let j = sent.(slot) in
        sent.(slot) <- j + 1;
        incr events;
        tapped := slot :: !tapped;
        match
          Span.span tr Span.Registry_offer (fun () ->
              Registry.offer reg ids.(slot)
                (Registry.Tap
                   { x = Workload.tap_x inp ~slot ~j; y = Workload.tap_y inp ~slot ~j }))
        with
        | Live_host.Backpressure.Accepted -> ()
        | _ -> fail "round %d: offer to slot %d not accepted" r slot
      end
    done;
    (match Span.span tr Span.Scheduler_drain (fun () -> Scheduler.drain sched) with
    | Ok _ -> ()
    | Error m -> fail "round %d: drain: %s" r m);
    (* what the server paints for its deltas: every session after an
       edit, the tapped ones otherwise *)
    if edit then for slot = 0 to w.fleet - 1 do repaint Span.Screenshot_edit slot done
    else List.iter (repaint Span.Screenshot_tap) !tapped
  done;
  let seconds = Span.now () -. t0 in
  Span.leave tr root;
  let digest = Registry.digest reg in
  (* a tenth of the fleet through the persistence path a rebalance
     uses; each restored session must observe byte-identically *)
  let roundtrips = ref 0 and roundtrip_bytes = ref 0 in
  Array.iteri
    (fun slot id ->
      if slot mod 10 = 0 then begin
        let s = session id in
        match
          Span.span tr Span.Session_roundtrip (fun () ->
              let text = Snapshot.to_string (Snapshot.of_session s) in
              roundtrip_bytes := !roundtrip_bytes + String.length text;
              match Snapshot.of_string text with
              | Error m -> Error m
              | Ok snap -> Snapshot.restore ~program:(Registry.program reg) snap)
        with
        | Error m -> fail "slot %d: snapshot round trip: %s" slot m
        | Ok s' ->
            incr roundtrips;
            if Registry.observe_session s' <> Registry.observe_session s then
              fail "slot %d: restored session observes differently" slot
      end)
    ids;
  {
    digest;
    events = !events;
    seconds;
    reports = List.rev !reports;
    roundtrips = !roundtrips;
    roundtrip_bytes = !roundtrip_bytes;
    failures = List.rev !failures;
  }
