(** Output checks against values derived apart from the host: the
    expected counters come from the generated tap streams alone, never
    from a stored copy of an earlier run's output. *)

(* The decimal after [label] in [row], if [row] holds [label]. *)
let number_after (row : string) (label : string) : int option =
  let n = String.length row and m = String.length label in
  let rec find i =
    if i + m > n then None
    else if String.sub row i m = label then Some (i + m)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some j ->
      let k = ref j in
      while !k < n && row.[!k] >= '0' && row.[!k] <= '9' do
        incr k
      done;
      if !k = j then None else int_of_string_opt (String.sub row j (!k - j))

(** One client-reconstructed frame against its expected content: the
    banner names [version], row [i + 1] shows [count counts.(i)], and
    the footer shows [taps (sum counts)].  [None] when it matches. *)
let frame ~(frame : string array) ~(version : int) ~(counts : int array) :
    string option =
  let rows = Workload.rows in
  let banner = Printf.sprintf "fleet app v%d " version in
  if Array.length frame <> rows + 2 then
    Some (Printf.sprintf "frame has %d rows, expected %d" (Array.length frame) (rows + 2))
  else if not (String.starts_with ~prefix:banner frame.(0)) then
    Some (Printf.sprintf "banner %S does not start with %S" frame.(0) banner)
  else begin
    let bad = ref None in
    for i = rows - 1 downto 0 do
      match number_after frame.(i + 1) "count " with
      | Some c when c = counts.(i) -> ()
      | got ->
          bad :=
            Some
              (Printf.sprintf "row %d shows %s, expected count %d" i
                 (match got with Some c -> string_of_int c | None -> "no count")
                 counts.(i))
    done;
    let total = Array.fold_left ( + ) 0 counts in
    match !bad with
    | Some _ -> !bad
    | None -> (
        match number_after frame.(rows + 1) "taps " with
        | Some t when t = total -> None
        | _ -> Some (Printf.sprintf "footer %S, expected taps %d" frame.(rows + 1) total))
  end

(** Every slot's frame; returns the failures, one line each. *)
let fleet (w : Workload.t) (inp : Workload.inputs) ~(frames : string array array)
    ~(sent : int array) ~(version : int) : string list =
  let failures = ref [] in
  for slot = w.Workload.fleet - 1 downto 0 do
    let counts = Workload.expected_counts inp ~slot ~n:sent.(slot) in
    match frame ~frame:frames.(slot) ~version ~counts with
    | None -> ()
    | Some m -> failures := Printf.sprintf "slot %d: %s" slot m :: !failures
  done;
  !failures

(** The check must be able to fail: slot 0's frame against its
    expected counts with one counter off by one.  [true] when the
    corrupted expectation is caught. *)
let self_test (inp : Workload.inputs) ~(frames : string array array)
    ~(sent : int array) ~(version : int) : bool =
  let counts = Workload.expected_counts inp ~slot:0 ~n:sent.(0) in
  counts.(0) <- counts.(0) + 1;
  frame ~frame:frames.(0) ~version ~counts <> None
