(** Monotonic time and the traced run's span recorder.

    A span is one call into a layer, timed from outside: its kind, its
    start and end, and the span that was open when it began (its
    parent).  Spans stay in growable arrays until the run ends; a
    disabled recorder costs one branch per call and records nothing,
    so the untraced run executes exactly the same program calls. *)

let now () : float = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type kind =
  | Timed  (** the whole timed phase of the live run *)
  | Server_step  (** [Server.step] of the single host *)
  | Director_step  (** [Director.step] *)
  | Shard_step  (** a shard's [Server.step], at top level or via the pump *)
  | Wire_encode  (** the load generator's [Wire.encode_into] *)
  | Wire_decode  (** the load generator's [Wire.decode] *)
  | Surface_compile  (** edit source text to core program *)
  | Program_encode  (** [Snapshot.program_to_string] *)
  | Rebalance  (** [Rebalance] frame written to [Ack] decoded *)
  | Replay  (** the whole direct replay, setup and checks excluded *)
  | Registry_offer
  | Scheduler_drain
  | Screenshot_tap  (** [Session.screenshot] of a session after its taps *)
  | Screenshot_edit  (** [Session.screenshot] of every session after an edit *)
  | Wire_delta  (** [rows_of_text] + [delta_of_frames] *)
  | Broadcast_update
  | Program_decode  (** [Snapshot.program_of_string] *)
  | Session_roundtrip
      (** [of_session] -> [to_string] -> [of_string] -> [restore] *)

let kind_name = function
  | Timed -> "timed"
  | Server_step -> "server.step"
  | Director_step -> "director.step"
  | Shard_step -> "shard.step"
  | Wire_encode -> "wire.encode"
  | Wire_decode -> "wire.decode"
  | Surface_compile -> "surface.compile"
  | Program_encode -> "snapshot.program_to_string"
  | Rebalance -> "director.rebalance"
  | Replay -> "replay"
  | Registry_offer -> "registry.offer"
  | Scheduler_drain -> "scheduler.drain"
  | Screenshot_tap -> "session.screenshot.tap"
  | Screenshot_edit -> "session.screenshot.edit"
  | Wire_delta -> "wire.delta"
  | Broadcast_update -> "broadcast.update"
  | Program_decode -> "snapshot.program_of_string"
  | Session_roundtrip -> "snapshot.session_roundtrip"

type t = {
  mutable on : bool;  (** recording; spans are taken only while set *)
  mutable n : int;
  mutable kind : kind array;
  mutable parent : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable cur : int;  (** innermost open span, [-1] when none *)
}

let create () : t =
  let cap = 1024 in
  {
    on = false;
    n = 0;
    kind = Array.make cap Timed;
    parent = Array.make cap (-1);
    start = Array.make cap 0.;
    stop = Array.make cap 0.;
    cur = -1;
  }

let grow (t : t) : unit =
  let cap = 2 * Array.length t.kind in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.kind <- extend t.kind Timed;
  t.parent <- extend t.parent (-1);
  t.start <- extend t.start 0.;
  t.stop <- extend t.stop 0.

(** Open a span; returns its index ([-1] when recording is off). *)
let enter (t : t) (k : kind) : int =
  if not t.on then -1
  else begin
    if t.n = Array.length t.kind then grow t;
    let i = t.n in
    t.n <- i + 1;
    t.kind.(i) <- k;
    t.parent.(i) <- t.cur;
    t.cur <- i;
    t.start.(i) <- now ();
    i
  end

let leave (t : t) (i : int) : unit =
  if i >= 0 then begin
    t.stop.(i) <- now ();
    t.cur <- t.parent.(i)
  end

let span (t : t) (k : kind) (f : unit -> 'a) : 'a =
  let i = enter t k in
  match f () with
  | v ->
      leave t i;
      v
  | exception e ->
      leave t i;
      raise e

(** Per-kind totals: number of spans, summed duration, and summed self
    time — each span's duration minus the part of it that its direct
    children cover (children nest strictly inside their parent). *)
type agg = { count : int; total : float; self : float }

let aggregate (t : t) : kind -> agg =
  let child = Array.make t.n 0. in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) +. (t.stop.(i) -. t.start.(i))
  done;
  let tbl = Hashtbl.create 32 in
  for i = 0 to t.n - 1 do
    let d = t.stop.(i) -. t.start.(i) in
    let a =
      Option.value (Hashtbl.find_opt tbl t.kind.(i))
        ~default:{ count = 0; total = 0.; self = 0. }
    in
    Hashtbl.replace tbl t.kind.(i)
      { count = a.count + 1; total = a.total +. d; self = a.self +. d -. child.(i) }
  done;
  fun k ->
    Option.value (Hashtbl.find_opt tbl k)
      ~default:{ count = 0; total = 0.; self = 0. }

(** Write every span as one tab-separated line: index, parent index,
    kind, start and end in nanoseconds since the first span. *)
let write (t : t) (path : string) : unit =
  let oc = open_out path in
  let base = if t.n > 0 then t.start.(0) else 0. in
  output_string oc "# id\tparent\tkind\tstart_ns\tend_ns\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%.0f\t%.0f\n" i t.parent.(i)
      (kind_name t.kind.(i))
      ((t.start.(i) -. base) *. 1e9)
      ((t.stop.(i) -. base) *. 1e9)
  done;
  close_out oc
