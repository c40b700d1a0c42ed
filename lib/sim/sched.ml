(* Deterministic discrete-event scheduler built on OCaml 5 effect handlers.

   Tasks are cooperative fibers. A fiber gives up control by parking a
   [register] function in its task and performing [Suspend]; [register]
   receives a waker that, when invoked, re-queues the fiber. Wakers are
   guarded by a per-task generation counter so a stale waker (e.g. a timer
   that fires after the condition it was racing already woke the task) is a
   no-op. This one mechanism implements sleeps, condition waits, joins,
   mutexes, channels and timeouts.

   All state lives in a single domain; combined with the tie-broken event
   heap and FIFO run queue, a run is a deterministic function of the seed. *)

exception Cancelled
(* Raised inside a fiber that another task killed. *)

type exit_status = Exited | Failed of exn | Killed

type state = Ready | Running | Blocked | Finished

type task = {
  id : int;
  name : string;
  mutable state : state;
  mutable status : exit_status option;
  mutable blocked_on : string;
  mutable blocked_since : int64;
  mutable gen : int;
  mutable kont : (unit, unit) Effect.Deep.continuation option;
  (* what the [Suspend] being performed waits on, parked here by [suspend]
     so the effect itself carries no payload *)
  mutable pending_reason : string;
  mutable pending_register : (unit -> unit) -> unit;
  mutable body : unit -> unit; (* the task's function, until it starts *)
  job : unit -> unit;
      (* the run-queue job, built at spawn: its first run starts [body],
         every later one resumes [kont] *)
  as_current : task option; (* [Some] of this task, for [current] *)
  mutable exit_hooks : (exit_status -> unit) list;
  mutable cancel_requested : bool;
  daemon : bool;
  (* "join <name>", built on the first join so repeat joiners of a hot task
     do not re-format the suspend reason *)
  mutable join_reason : string;
}

type run_result = Quiescent | Time_limit | Deadlock of task list

type t = {
  mutable now : int64;
  mutable until : int64; (* the current [run]'s time limit *)
  timers : (unit -> unit) Heap.t;
  runq : (unit -> unit) Ring.t;
  mutable current : task option;
  mutable next_id : int;
  live : (int, task) Hashtbl.t;
      (* unfinished non-daemon tasks by id; finished tasks leave it, so the
         scheduler retains nothing of them *)
  rng : Rng.t;
  mutable switches : int;
  mutable spawned : int;
  mutable events_fired : int;
  mutable trace : Trace.t option;
  yield_register : (unit -> unit) -> unit; (* re-queues its waker *)
}

(* Constant: performing it allocates nothing. *)
type _ Effect.t += Suspend : unit Effect.t

(* Domain-local, so independent simulations can run on separate domains
   (one self-contained world per domain) without observing each other. *)
let ambient : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let get () =
  match Domain.DLS.get ambient with
  | Some s -> s
  | None -> failwith "Sched: no simulation is running"

let create ?(seed = 42) () =
  let runq = Ring.create ~dummy:ignore in
  {
    now = 0L;
    until = Time.never;
    timers = Heap.create ~dummy_payload:(fun () -> ());
    runq;
    current = None;
    next_id = 0;
    live = Hashtbl.create 64;
    rng = Rng.create ~seed;
    switches = 0;
    spawned = 0;
    events_fired = 0;
    trace = None;
    yield_register = Ring.push runq;
  }

let now s = s.now
let rng s = s.rng

let self s =
  match s.current with
  | Some t -> t
  | None -> failwith "Sched.self: called outside a task"

let current s = s.current

let task_name t = t.name
let task_id t = t.id
let task_state t = t.state
let task_status t = t.status
let task_blocked_on t = t.blocked_on
let task_blocked_since t = t.blocked_since

let stats s = (s.spawned, s.switches, s.events_fired)

(* Load-pressure probes for adaptive checker scheduling. Both are pure
   reads of scheduler state at the instant of the call, so a sampling task
   sees a deterministic value: the runq contents and timer heap at any
   point of a run are a function of the seed alone. *)
let runq_depth s = Ring.length s.runq

let timer_slack s =
  if Heap.is_empty s.timers then Int64.max_int
  else
    let t = Heap.min_time s.timers in
    if t <= s.now then 0L else Int64.sub t s.now

let timer_count s = Heap.size s.timers

let trace_capacity = 1 lsl 16

let trace s =
  match s.trace with
  | Some tr -> tr
  | None ->
      let tr = Trace.create ~capacity:trace_capacity in
      s.trace <- Some tr;
      tr

let traced s = Option.is_some s.trace

(* Dedicated per-kind emitters: with tracing off (the common case) nothing
   is evaluated or allocated — the old [emit s t (Trace.Blocked reason)]
   shape built a variant block per suspend even with no trace attached. *)
let emit_spawned s t =
  match s.trace with
  | None -> ()
  | Some tr -> Trace.spawned tr ~at:s.now ~task_id:t.id ~task_name:t.name

let emit_resumed s t =
  match s.trace with
  | None -> ()
  | Some tr -> Trace.resumed tr ~at:s.now ~task_id:t.id ~task_name:t.name

let emit_blocked s t reason =
  match s.trace with
  | None -> ()
  | Some tr ->
      Trace.blocked tr ~at:s.now ~task_id:t.id ~task_name:t.name ~reason

let emit_finished s t how =
  match s.trace with
  | None -> ()
  | Some tr -> Trace.finished tr ~at:s.now ~task_id:t.id ~task_name:t.name ~how

(* Interned op-event emitters for the interpreter's traced fast path: the
   caller resolves Site ids once per op site, and nothing here allocates. *)
let current_ident s =
  match s.current with Some t -> (t.id, t.name) | None -> (0, "<sched>")

let trace_op_start s ~op ~node ~func =
  match s.trace with
  | None -> ()
  | Some tr ->
      let task_id, task_name = current_ident s in
      Trace.op_start tr ~at:s.now ~task_id ~task_name ~op ~node ~func

let trace_op_end s ~op ~node ~func ~dur =
  match s.trace with
  | None -> ()
  | Some tr ->
      let task_id, task_name = current_ident s in
      Trace.op_end tr ~at:s.now ~task_id ~task_name ~op ~node ~func ~dur

let trace_op_fail s ~op ~node ~func ~err =
  match s.trace with
  | None -> ()
  | Some tr ->
      let task_id, task_name = current_ident s in
      Trace.op_fail tr ~at:s.now ~task_id ~task_name ~op ~node ~func ~err

let finish s t status =
  (match s.trace with
  | None -> ()
  | Some _ ->
      emit_finished s t
        (match status with
        | Exited -> "exited"
        | Failed e -> "failed: " ^ Printexc.to_string e
        | Killed -> "killed"));
  t.state <- Finished;
  t.status <- Some status;
  t.kont <- None;
  if not t.daemon then Hashtbl.remove s.live t.id;
  let hooks = t.exit_hooks in
  t.exit_hooks <- [];
  List.iter (fun h -> h status) hooks;
  s.current <- None

(* Re-queue a blocked task. [gen] guards against stale wakers. The
   continuation stays in [kont] until the task's job resumes it. *)
let wake s t gen =
  if t.gen = gen && t.state = Blocked then begin
    t.state <- Ready;
    Ring.push s.runq t.job
  end

let no_register (_ : unit -> unit) = ()

(* Built once per task, when it starts: the handler and the closure it
   hands every [Suspend]. What the task waits on reaches that closure
   through the task record, so a suspend allocates only its waker and its
   continuation. *)
let handler s t =
  let on_suspend =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        let reason = t.pending_reason and register = t.pending_register in
        t.pending_register <- no_register;
        emit_blocked s t reason;
        t.state <- Blocked;
        t.blocked_on <- reason;
        t.blocked_since <- s.now;
        t.gen <- t.gen + 1;
        t.kont <- Some k;
        let gen = t.gen in
        register (fun () -> wake s t gen);
        s.current <- None)
  in
  {
    Effect.Deep.retc = (fun () -> finish s t Exited);
    exnc =
      (fun e ->
        match e with
        | Cancelled -> finish s t Killed
        | e -> finish s t (Failed e));
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with Suspend -> on_suspend | _ -> None);
  }

let run_job s t =
  match t.kont with
  | Some k ->
      t.kont <- None;
      t.state <- Running;
      s.current <- t.as_current;
      s.switches <- s.switches + 1;
      emit_resumed s t;
      if t.cancel_requested then Effect.Deep.discontinue k Cancelled
      else Effect.Deep.continue k ()
  | None ->
      if t.cancel_requested then finish s t Killed
      else begin
        let f = t.body in
        t.body <- ignore;
        t.state <- Running;
        s.current <- t.as_current;
        s.switches <- s.switches + 1;
        Effect.Deep.match_with f () (handler s t)
      end

let spawn ?(name = "task") ?(daemon = false) s f =
  let rec t =
    {
      id = s.next_id;
      name;
      state = Ready;
      status = None;
      blocked_on = "";
      blocked_since = s.now;
      gen = 0;
      kont = None;
      pending_reason = "";
      pending_register = no_register;
      body = f;
      job = (fun () -> run_job s t);
      as_current = Some t;
      exit_hooks = [];
      cancel_requested = false;
      daemon;
      join_reason = "";
    }
  in
  s.next_id <- s.next_id + 1;
  s.spawned <- s.spawned + 1;
  if not daemon then Hashtbl.replace s.live t.id t;
  emit_spawned s t;
  Ring.push s.runq t.job;
  t

(* Outside a task nothing handles [Suspend], so the perform raises
   [Effect.Unhandled]. *)
let suspend ~reason ~register =
  (match Domain.DLS.get ambient with
  | Some { current = Some t; _ } ->
      t.pending_reason <- reason;
      t.pending_register <- register
  | Some { current = None; _ } | None -> ());
  Effect.perform Suspend

let at s time f =
  let time = if time < s.now then s.now else time in
  Heap.push s.timers ~time f

(* A fixed-delay deadline: its own lane of the timer queue, fired at the
   same instant and in the same (time, seq) order as [at]. *)
let after s delay f =
  let time = Int64.add s.now delay in
  Heap.push_lane s.timers ~lane:delay
    ~time:(if time < s.now then s.now else time)
    f

module Reference = struct
  let active = Atomic.make false

  let within f =
    let prev = Atomic.exchange active true in
    Fun.protect ~finally:(fun () -> Atomic.set active prev) f
end

(* Constant reason: sleep is the hottest suspend (every CPU-quantum flush
   goes through it) and a formatted per-call reason string is measurable
   there. The duration is recoverable from the trace timestamps.

   Uncontended fast path: when the sleeper is the running task, nothing is
   runnable, no cancel is pending, the wake time is within the current
   [run]'s limit and every armed timer is strictly later, the slow path
   would push a timer, pop it straight back as the next event and resume
   this task as the event after that, with nothing else running in
   between. So advance the clock inline and do that bookkeeping by hand:
   two events (timer fire, resume job), one switch, one generation bump,
   the blocked/resumed trace pair. No continuation is captured and no
   timer is pushed; heap sequence numbers are skipped, which preserves
   the relative order of every later push. *)
let sleep delay =
  let s = get () in
  let now = s.now in
  let wake_at =
    let w = Int64.add now delay in
    if w < now then now else w
  in
  match s.current with
  | Some t
    when t.state = Running
         && (not t.cancel_requested)
         && Ring.is_empty s.runq
         && wake_at <= s.until
         && (Heap.is_empty s.timers || Heap.min_time s.timers > wake_at)
         && not (Atomic.get Reference.active) ->
      emit_blocked s t "sleep";
      t.blocked_on <- "sleep";
      t.blocked_since <- now;
      t.gen <- t.gen + 1;
      s.now <- wake_at;
      s.events_fired <- s.events_fired + 2;
      s.switches <- s.switches + 1;
      emit_resumed s t
  | Some _ | None ->
      suspend ~reason:"sleep" ~register:(fun waker -> at s wake_at waker)

let yield () =
  let s = get () in
  suspend ~reason:"yield" ~register:s.yield_register

let kill s t =
  match t.state with
  | Finished -> ()
  | Running ->
      if s.current == t.as_current then raise Cancelled
      else
        (* A running task other than the current one is impossible in a
           single-domain scheduler. *)
        assert false
  | Ready -> t.cancel_requested <- true
  | Blocked -> (
      t.cancel_requested <- true;
      match t.kont with
      | None -> ()
      | Some k ->
          t.kont <- None;
          t.gen <- t.gen + 1;
          Ring.push s.runq (fun () ->
              t.state <- Running;
              s.current <- t.as_current;
              Effect.Deep.discontinue k Cancelled))

let on_exit t hook =
  match t.status with
  | Some st -> hook st
  | None -> t.exit_hooks <- hook :: t.exit_hooks

let join_reason t =
  if String.length t.join_reason = 0 then t.join_reason <- "join " ^ t.name;
  t.join_reason

let join t =
  (match t.status with
  | Some _ -> ()
  | None ->
      suspend ~reason:(join_reason t)
        ~register:(fun waker -> on_exit t (fun _ -> waker ())));
  match t.status with Some st -> st | None -> assert false

(* Run [f] in a child task with a deadline. If the deadline passes first the
   child is killed and [Error `Timeout] is returned. *)
let timeout_join ?(name = "timed") s ~timeout f =
  let result = ref None in
  let child = spawn ~name s (fun () -> result := Some (f ())) in
  let fired = ref false in
  suspend
    ~reason:(Fmt.str "timeout_join %s" name)
    ~register:(fun waker ->
      on_exit child (fun _ -> waker ());
      after s timeout (fun () ->
          fired := true;
          waker ()));
  match child.status with
  | Some Exited -> (
      match !result with Some v -> Ok v | None -> assert false)
  | Some (Failed e) -> Error (`Exn e)
  | Some Killed -> Error (`Killed)
  | None ->
      assert !fired;
      kill s child;
      Error `Timeout

(* --- persistent timeout runner ---

   [timeout_join] spawns a fresh child fiber per call; on a periodic path
   (the watchdog driver runs every checker through it, forever) that is a
   task record, closures and trace bookkeeping per run. A [runner] keeps
   one daemon worker fiber alive across runs: each run hands the worker a
   thunk and wakes it, so steady state costs a wake instead of a spawn.

   Scheduling equivalence with [timeout_join] (load-bearing — E20 sweep
   digests marshal virtual-time latencies): each run performs exactly one
   run-queue push to start the work (worker wake vs child spawn), one push
   to resume the caller, and registers the same deadline timer (which fires
   at the deadline in both designs, woken or not). Virtual timestamps,
   [events_fired] and [switches] are therefore identical; only [spawned]
   and the sched-level trace shape differ, and neither reaches a digest.
   On timeout the worker is killed exactly like the old child and is
   respawned lazily by the next run. *)

type runner = {
  r_sched : t;
  r_name : string;
  r_reason : string; (* "timeout_join <name>", same bytes as [timeout_join] *)
  r_idle : string;
  mutable r_worker : task option;
  mutable r_job : (unit -> unit) option;
  mutable r_wake : (unit -> unit) option; (* wakes the idle worker *)
  mutable r_notify : (unit -> unit) option; (* wakes the waiting caller *)
  mutable r_done : bool;
  mutable r_exn : exn option;
}

let runner ?(name = "timed") s =
  {
    r_sched = s;
    r_name = name;
    r_reason = "timeout_join " ^ name;
    r_idle = "runner idle " ^ name;
    r_worker = None;
    r_job = None;
    r_wake = None;
    r_notify = None;
    r_done = false;
    r_exn = None;
  }

let runner_notify r =
  match r.r_notify with
  | Some w ->
      r.r_notify <- None;
      w ()
  | None -> ()

let rec runner_loop r () =
  match r.r_job with
  | Some job ->
      r.r_job <- None;
      (try job () with
      | Cancelled as e -> raise e
      | e -> r.r_exn <- Some e);
      r.r_done <- true;
      runner_notify r;
      runner_loop r ()
  | None ->
      suspend ~reason:r.r_idle ~register:(fun waker -> r.r_wake <- Some waker);
      runner_loop r ()

let runner_ensure_worker r =
  match r.r_worker with
  | Some _ -> ()
  | None ->
      let w = spawn ~name:r.r_name ~daemon:true r.r_sched (runner_loop r) in
      (* Guarded by identity: a worker killed on timeout may only die after
         its replacement was spawned; its exit must not clobber the new
         worker or spuriously wake a later run's caller. *)
      on_exit w (fun _ ->
          match r.r_worker with
          | Some w' when w' == w ->
              r.r_worker <- None;
              runner_notify r
          | Some _ | None -> ());
      r.r_worker <- Some w

let runner_run r ~timeout f =
  let s = r.r_sched in
  let result = ref None in
  r.r_done <- false;
  r.r_exn <- None;
  r.r_job <- Some (fun () -> result := Some (f ()));
  runner_ensure_worker r;
  (match r.r_wake with
  | Some w ->
      r.r_wake <- None;
      w ()
  | None -> ());
  let fired = ref false in
  suspend ~reason:r.r_reason
    ~register:(fun waker ->
      r.r_notify <- Some waker;
      after s timeout (fun () ->
          fired := true;
          waker ()));
  r.r_notify <- None;
  if r.r_done then
    match r.r_exn with
    | Some e -> Error (`Exn e)
    | None -> (
        match !result with Some v -> Ok v | None -> Error `Killed)
  else if r.r_worker = None then begin
    r.r_job <- None;
    Error `Killed
  end
  else begin
    assert !fired;
    (match r.r_worker with
    | Some w ->
        r.r_worker <- None;
        kill s w
    | None -> ());
    r.r_job <- None;
    Error `Timeout
  end

let runner_stop r =
  match r.r_worker with
  | Some w ->
      r.r_worker <- None;
      kill r.r_sched w
  | None -> ()

(* Newest first (descending id). *)
let blocked_tasks s =
  Hashtbl.fold
    (fun _ t l -> if t.state = Blocked then t :: l else l)
    s.live []
  |> List.sort (fun a b -> Int.compare b.id a.id)

let run ?(until = Time.never) s =
  let saved = Domain.DLS.get ambient in
  let saved_until = s.until in
  Domain.DLS.set ambient (Some s);
  s.until <- until;
  let restore () =
    s.until <- saved_until;
    Domain.DLS.set ambient saved
  in
  let rec loop () =
    if not (Ring.is_empty s.runq) then begin
      let job = Ring.pop s.runq in
      s.events_fired <- s.events_fired + 1;
      job ();
      s.current <- None;
      loop ()
    end
    else if Heap.is_empty s.timers then
      if Hashtbl.length s.live > 0 then Deadlock (blocked_tasks s)
      else Quiescent
    else
      let time = Heap.min_time s.timers in
      if time <= until then begin
        let fn = Heap.pop_min s.timers in
        if time > s.now then s.now <- time;
        s.events_fired <- s.events_fired + 1;
        fn ();
        s.current <- None;
        loop ()
      end
      else begin
        s.now <- until;
        Time_limit
      end
  in
  match loop () with
  | result ->
      restore ();
      result
  | exception e ->
      restore ();
      raise e

let pp_task ppf t =
  let state =
    match t.state with
    | Ready -> "ready"
    | Running -> "running"
    | Blocked -> Fmt.str "blocked on %s" t.blocked_on
    | Finished -> (
        match t.status with
        | Some Exited -> "exited"
        | Some (Failed e) -> Fmt.str "failed (%s)" (Printexc.to_string e)
        | Some Killed -> "killed"
        | None -> "finished")
  in
  Fmt.pf ppf "#%d %s [%s]" t.id t.name state
