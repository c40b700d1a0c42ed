(* Condition variables for the cooperative scheduler. Wakers popped by
   [signal] may belong to tasks already woken by something else (a timeout,
   a kill); the scheduler's generation guard makes those calls no-ops, so a
   spurious pop is harmless — waiters must re-check their predicate, exactly
   as with POSIX condition variables. *)

(* The name is [prefix ^ base ^ suffix], kept in parts: a cond is often
   created per request and never waited on, so the name and the two wait
   reasons are only built when first needed, then cached ([""] = not yet;
   a built reason is never empty). *)
type t = {
  prefix : string;
  base : string;
  suffix : string;
  mutable reason : string;
  mutable reason_timed : string;
  waiters : (unit -> unit) Queue.t;
}

let create ?(prefix = "") ?(suffix = "") base =
  { prefix; base; suffix; reason = ""; reason_timed = ""; waiters = Queue.create () }

let name c = c.prefix ^ c.base ^ c.suffix
let waiter_count c = Queue.length c.waiters

let reason c =
  if c.reason = "" then c.reason <- "cond " ^ name c;
  c.reason

let reason_timed c =
  if c.reason_timed = "" then c.reason_timed <- "cond " ^ name c ^ " (timed)";
  c.reason_timed

let wait c =
  Sched.suspend ~reason:(reason c)
    ~register:(fun waker -> Queue.push waker c.waiters)

let signal c = if not (Queue.is_empty c.waiters) then (Queue.pop c.waiters) ()

let broadcast c =
  let wakers = Queue.to_seq c.waiters |> List.of_seq in
  Queue.clear c.waiters;
  List.iter (fun w -> w ()) wakers

(* Wait until [pred ()] holds, re-checking after every wake-up. *)
let rec await c pred = if not (pred ()) then begin wait c; await c pred end

(* Wait for the predicate with a deadline; [false] means timed out. The
   first wait starts at the instant [deadline] was taken, so its timer is a
   fixed-delay [Sched.after]; a re-wait after a spurious wake-up arms the
   remaining time at the absolute deadline. *)
let await_timeout c pred ~timeout =
  let s = Sched.get () in
  let deadline = Int64.add (Sched.now s) timeout in
  let rec loop first =
    if pred () then true
    else if Sched.now s >= deadline then false
    else begin
      Sched.suspend ~reason:(reason_timed c)
        ~register:(fun waker ->
          Queue.push waker c.waiters;
          if first then Sched.after s timeout waker
          else Sched.at s deadline waker);
      loop false
    end
  in
  loop true
