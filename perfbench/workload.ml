(** The three workloads and the inputs each run generates from its seed
    before timing starts: one tap stream per session slot and a pool of
    edit source texts.  The host receives only these inputs. *)

module Prng = Live_core.Prng
module Synthetic = Live_workloads.Synthetic

type edit_kind =
  | Cold
      (** restamp the initial value of cold global [c0], which the
          start page never reads: no display changes *)
  | Visible
      (** bump the app's banner version: every display changes *)

(** The app every workload runs: [Synthetic.host_app] with [rows]
    tappable counter rows between its banner and footer and [cold]
    globals and functions the start page never reads, on a display
    [width] columns wide. *)
let rows = 8

let cold = 16
let width = 48

type t = {
  name : string;
  fleet : int;  (** sessions, all attached to the tap connection *)
  tap_every : int;
      (** slot [s] taps in round [r] iff [r mod tap_every = s mod
          tap_every]: 1 = the whole fleet taps every round *)
  edit_every : int;  (** round [r] carries an edit iff [r mod edit_every = edit_every - 1] *)
  edit : edit_kind;
  rebalance_every : int;
      (** directed only: a [Rebalance] follows round [r] iff
          [r mod rebalance_every = rebalance_every / 2]; 0 = never *)
  rebalance_count : int;  (** sessions moved per rebalance *)
  directed : bool;  (** a director over two in-process shards *)
  pass_rounds : int;
      (** rounds in a pass.  The timed phase is a number of passes,
          each on a fresh host and fleet that run the same inputs.
          Sessions keep their whole interaction trace, so a round costs
          more the more rounds came before it in the same fleet; passes
          of a fixed length make every run measure the same work,
          however many of them the machine's speed lets it make. *)
}

let taps =
  {
    name = "taps";
    fleet = 200;
    tap_every = 1;
    edit_every = 4;
    edit = Cold;
    rebalance_every = 0;
    rebalance_count = 0;
    directed = false;
    pass_rounds = 80;
  }

let edits =
  {
    name = "edits";
    fleet = 200;
    tap_every = 5;
    edit_every = 1;
    edit = Visible;
    rebalance_every = 0;
    rebalance_count = 0;
    directed = false;
    pass_rounds = 120;
  }

let directed =
  {
    name = "directed";
    (* odd, so the two shards are never level and every Rebalance has a
       fullest and an emptiest shard to move sessions between *)
    fleet = 201;
    tap_every = 1;
    edit_every = 4;
    edit = Visible;
    rebalance_every = 8;
    rebalance_count = 20;
    directed = true;
    pass_rounds = 80;
  }

let all = [ taps; edits; directed ]
let find (name : string) : t option = List.find_opt (fun w -> w.name = name) all

let taps_in_round (w : t) (slot : int) (round : int) : bool =
  round mod w.tap_every = slot mod w.tap_every

let edit_round (w : t) (round : int) : bool =
  round mod w.edit_every = w.edit_every - 1

let rebalance_round (w : t) (round : int) : bool =
  w.rebalance_every > 0 && round mod w.rebalance_every = w.rebalance_every / 2

(** Distinct edit texts; edit [k] uses text [k mod edit_pool].  Any two
    consecutive texts differ, also across the wrap-around. *)
let edit_pool = 64

(** The app at version [version] with cold global [c0] initialised to
    [c0] — the only two things an edit changes.  Neither touches a tap
    handler, so a tap has the same effect on either side of an edit. *)
let app_source ~(version : int) ~(c0 : int) : string =
  let src = Synthetic.host_app ~cold ~rows ~version () in
  let pat = "global c0 : number = 0\n" in
  let rec find i =
    if i + String.length pat > String.length src then
      invalid_arg "app_source: cold global c0 not found"
    else if String.sub src i (String.length pat) = pat then i
    else find (i + 1)
  in
  let i = find 0 in
  String.concat ""
    [
      String.sub src 0 i;
      Printf.sprintf "global c0 : number = %d\n" c0;
      String.sub src (i + String.length pat)
        (String.length src - i - String.length pat);
    ]

(** The banner version after [k] edits of the workload. *)
let version_after (w : t) (k : int) : int =
  match w.edit with Cold -> 0 | Visible -> if k = 0 then 0 else ((k - 1) mod edit_pool) + 1

(** Taps in each slot's stream, more than a slot sends in a pass (at
    most [pass_rounds]).  A slot's [j]-th tap is entry [j mod
    stream_len]. *)
let stream_len = 256

type inputs = {
  boot_source : string;
  edit_texts : string array;  (** edit [k] sends [edit_texts.(k mod edit_pool)] *)
  stream : Bytes.t;
      (** slot [s]'s entry [j]: x at byte [2 * (s * stream_len + j)], y
          in the next byte *)
}

(** Generate a run's inputs.  Slot [s]'s stream comes from
    [Prng.derive seed s]: x uniform over the display width, y uniform
    over [0, rows + 3) — the banner (y = 0), the [rows] counter rows,
    the footer and one row below the frame, so about a quarter of the
    taps hit no handler. *)
let inputs (w : t) ~(seed : int) : inputs =
  let stream = Bytes.create (2 * w.fleet * stream_len) in
  for slot = 0 to w.fleet - 1 do
    let rng = Prng.create (Prng.derive seed slot) in
    for j = 0 to stream_len - 1 do
      let x = Prng.int rng width in
      let y = Prng.int rng (rows + 3) in
      Bytes.set_uint8 stream (2 * ((slot * stream_len) + j)) x;
      Bytes.set_uint8 stream ((2 * ((slot * stream_len) + j)) + 1) y
    done
  done;
  let edit_texts =
    Array.init edit_pool (fun k ->
        match w.edit with
        | Cold -> app_source ~version:0 ~c0:(k + 1)
        | Visible -> app_source ~version:(k + 1) ~c0:0)
  in
  { boot_source = app_source ~version:0 ~c0:0; edit_texts; stream }

(** Slot [s]'s [j]-th tap. *)
let tap_x (i : inputs) ~(slot : int) ~(j : int) : int =
  Bytes.get_uint8 i.stream (2 * ((slot * stream_len) + (j mod stream_len)))

let tap_y (i : inputs) ~(slot : int) ~(j : int) : int =
  Bytes.get_uint8 i.stream ((2 * ((slot * stream_len) + (j mod stream_len))) + 1)

(** Expected per-row counters of one slot after it sent [n] taps,
    derived from the generated stream alone: a tap counts on row
    [y - 1] iff [1 <= y <= rows]. *)
let expected_counts (i : inputs) ~(slot : int) ~(n : int) : int array =
  let counts = Array.make rows 0 in
  for j = 0 to n - 1 do
    let y = tap_y i ~slot ~j in
    if y >= 1 && y <= rows then counts.(y - 1) <- counts.(y - 1) + 1
  done;
  counts
