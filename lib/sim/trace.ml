(* Execution tracing: a bounded ring buffer of scheduler events (spawns,
   blocks with reasons, wakes, exits) and — when the interpreter runs with
   tracing enabled — operation-level events (start/end/fail of environment
   operations, keyed "kind:target:operand-prefix"). Each scheduler owns at
   most one ring ([Sched.trace]); the last events before a detection are
   the postmortem timeline a report invites you to read, and the op events
   are the raw material the trace miner turns into inferred checkers.

   Storage is struct-of-arrays: one int/string column per field, indexed by
   ring position. Recording an event is a handful of array stores — no
   record or variant block is allocated on the hot path. Op identifiers are
   interned ({!Site}) and timestamps are stored as native ints (virtual ns
   fits in 62 bits). The boxed [event] view is materialised only by
   [recent]/[dump], for the postmortem timeline and tests.

   Incremental consumers (the trace miner and the inferred-checker monitor)
   register a [cursor]: a read position plus an op fold. The ring never
   overwrites an event a cursor has not read. [due] is the smallest global
   index whose push would overwrite one; a push that reaches it first
   drains every cursor that is behind, so the hot path pays one int
   compare. Reads go through the slots in place and allocate nothing. A
   ring with no cursor overwrites its oldest event. *)

type kind =
  | Spawned
  | Blocked of string  (* the suspend reason *)
  | Resumed
  | Finished of string (* "exited" / "failed: ..." / "killed" *)
  | Op_start of { op : string; node : string; func : string }
  | Op_end of { op : string; node : string; func : string; dur : int64 }
  | Op_fail of { op : string; node : string; func : string; err : string }

type event = { at : int64; task_id : int; task_name : string; kind : kind }

(* column tags *)
let tag_spawned = 0
let tag_blocked = 1
let tag_resumed = 2
let tag_finished = 3
let tag_op_start = 4
let tag_op_end = 5
let tag_op_fail = 6

type op_tag = Start | End | Fail

type op_fold =
  op_tag ->
  at:int ->
  task_id:int ->
  op:Site.id ->
  node:Site.id ->
  func:Site.id ->
  dur:int ->
  note:string ->
  unit

type t = {
  capacity : int;
  c_tag : int array;
  c_at : int array; (* virtual ns as native int *)
  c_task_id : int array;
  c_task_name : string array;
  c_op : int array; (* Site.id, op events only *)
  c_node : int array; (* Site.id *)
  c_func : int array; (* Site.id *)
  c_dur : int array; (* Op_end duration, ns *)
  c_note : string array; (* Blocked reason / Finished how / Op_fail err *)
  mutable next : int;
  mutable total : int;
  mutable due : int; (* first [total] whose push overwrites an unread event *)
  mutable cursors : cursor list; (* in registration order *)
}

and cursor = { ring : t; mutable pos : int; fold : op_fold }

let create ~capacity =
  if capacity <= 0 then invalid_arg "Trace: capacity must be positive";
  {
    capacity;
    c_tag = Array.make capacity 0;
    c_at = Array.make capacity 0;
    c_task_id = Array.make capacity 0;
    c_task_name = Array.make capacity "";
    c_op = Array.make capacity 0;
    c_node = Array.make capacity 0;
    c_func = Array.make capacity 0;
    c_dur = Array.make capacity 0;
    c_note = Array.make capacity "";
    next = 0;
    total = 0;
    due = max_int;
    cursors = [];
  }

(* Hand [c] every op event it has not read, oldest first, and move it to
   the head. Its window never exceeds the ring: the push that would
   overwrite its oldest unread event drains it first. *)
let drain c =
  let t = c.ring in
  let from = c.pos and n = t.total in
  c.pos <- n;
  let i = ref ((t.next - (n - from) + t.capacity) mod t.capacity) in
  for _ = from to n - 1 do
    let s = !i in
    let tag = t.c_tag.(s) in
    if tag >= tag_op_start then
      c.fold
        (if tag = tag_op_start then Start
         else if tag = tag_op_end then End
         else Fail)
        ~at:t.c_at.(s) ~task_id:t.c_task_id.(s) ~op:t.c_op.(s)
        ~node:t.c_node.(s) ~func:t.c_func.(s) ~dur:t.c_dur.(s)
        ~note:t.c_note.(s);
    i := if s + 1 = t.capacity then 0 else s + 1
  done;
  assert (t.total = n (* a drain callback must not push *))

let cursor t fold =
  let c = { ring = t; pos = t.total; fold } in
  t.cursors <- t.cursors @ [ c ];
  t.due <- min t.due (c.pos + t.capacity);
  c

(* The next push would overwrite an event some cursor has not read. *)
let catch_up t =
  List.iter (fun c -> if c.pos + t.capacity <= t.total then drain c) t.cursors;
  t.due <-
    List.fold_left (fun due c -> min due (c.pos + t.capacity)) max_int t.cursors

(* Claim the next ring slot and stamp the shared columns. *)
let push t ~at ~task_id ~task_name =
  if t.total >= t.due then catch_up t;
  let i = t.next in
  t.next <- (i + 1) mod t.capacity;
  t.total <- t.total + 1;
  t.c_at.(i) <- Int64.to_int at;
  t.c_task_id.(i) <- task_id;
  t.c_task_name.(i) <- task_name;
  i

let spawned t ~at ~task_id ~task_name =
  let i = push t ~at ~task_id ~task_name in
  t.c_tag.(i) <- tag_spawned

let resumed t ~at ~task_id ~task_name =
  let i = push t ~at ~task_id ~task_name in
  t.c_tag.(i) <- tag_resumed

let blocked t ~at ~task_id ~task_name ~reason =
  let i = push t ~at ~task_id ~task_name in
  t.c_tag.(i) <- tag_blocked;
  t.c_note.(i) <- reason

let finished t ~at ~task_id ~task_name ~how =
  let i = push t ~at ~task_id ~task_name in
  t.c_tag.(i) <- tag_finished;
  t.c_note.(i) <- how

let op_start t ~at ~task_id ~task_name ~op ~node ~func =
  let i = push t ~at ~task_id ~task_name in
  t.c_tag.(i) <- tag_op_start;
  t.c_op.(i) <- op;
  t.c_node.(i) <- node;
  t.c_func.(i) <- func

let op_end t ~at ~task_id ~task_name ~op ~node ~func ~dur =
  let i = push t ~at ~task_id ~task_name in
  t.c_tag.(i) <- tag_op_end;
  t.c_op.(i) <- op;
  t.c_node.(i) <- node;
  t.c_func.(i) <- func;
  t.c_dur.(i) <- Int64.to_int dur

let op_fail t ~at ~task_id ~task_name ~op ~node ~func ~err =
  let i = push t ~at ~task_id ~task_name in
  t.c_tag.(i) <- tag_op_fail;
  t.c_op.(i) <- op;
  t.c_node.(i) <- node;
  t.c_func.(i) <- func;
  t.c_note.(i) <- err

(* Boxed-kind compatibility entry point (tests, synthetic traces). *)
let record t ~at ~task_id ~task_name kind =
  match kind with
  | Spawned -> spawned t ~at ~task_id ~task_name
  | Resumed -> resumed t ~at ~task_id ~task_name
  | Blocked reason -> blocked t ~at ~task_id ~task_name ~reason
  | Finished how -> finished t ~at ~task_id ~task_name ~how
  | Op_start { op; node; func } ->
      op_start t ~at ~task_id ~task_name ~op:(Site.intern op)
        ~node:(Site.intern node) ~func:(Site.intern func)
  | Op_end { op; node; func; dur } ->
      op_end t ~at ~task_id ~task_name ~op:(Site.intern op)
        ~node:(Site.intern node) ~func:(Site.intern func) ~dur
  | Op_fail { op; node; func; err } ->
      op_fail t ~at ~task_id ~task_name ~op:(Site.intern op)
        ~node:(Site.intern node) ~func:(Site.intern func) ~err

let total t = t.total

(* Materialise the boxed view of ring slot [i]. *)
let event_of_slot t i =
  let kind =
    match t.c_tag.(i) with
    | 0 -> Spawned
    | 1 -> Blocked t.c_note.(i)
    | 2 -> Resumed
    | 3 -> Finished t.c_note.(i)
    | 4 ->
        Op_start
          {
            op = Site.str t.c_op.(i);
            node = Site.str t.c_node.(i);
            func = Site.str t.c_func.(i);
          }
    | 5 ->
        Op_end
          {
            op = Site.str t.c_op.(i);
            node = Site.str t.c_node.(i);
            func = Site.str t.c_func.(i);
            dur = Int64.of_int t.c_dur.(i);
          }
    | _ ->
        Op_fail
          {
            op = Site.str t.c_op.(i);
            node = Site.str t.c_node.(i);
            func = Site.str t.c_func.(i);
            err = t.c_note.(i);
          }
  in
  {
    at = Int64.of_int t.c_at.(i);
    task_id = t.c_task_id.(i);
    task_name = t.c_task_name.(i);
    kind;
  }

(* The most recent [n] events, oldest first. *)
let recent t n =
  let n = min n (min t.total t.capacity) in
  let start = (t.next - n + (t.capacity * 2)) mod t.capacity in
  List.init n (fun i -> event_of_slot t ((start + i) mod t.capacity))

let kind_name = function
  | Spawned -> "spawned"
  | Blocked reason -> "blocked: " ^ reason
  | Resumed -> "resumed"
  | Finished how -> "finished: " ^ how
  | Op_start { op; node; _ } -> Printf.sprintf "op-start %s @%s" op node
  | Op_end { op; node; dur; _ } ->
      Printf.sprintf "op-end %s @%s (%Ldns)" op node dur
  | Op_fail { op; node; err; _ } ->
      Printf.sprintf "op-fail %s @%s: %s" op node err

let pp_event ppf e =
  Fmt.pf ppf "[%a] #%d %-24s %s" Time.pp e.at e.task_id e.task_name
    (kind_name e.kind)

let dump ?(n = 50) ppf t =
  List.iter (fun e -> Fmt.pf ppf "%a@." pp_event e) (recent t n)
