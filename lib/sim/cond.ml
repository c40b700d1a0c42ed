(* Condition variables for the cooperative scheduler. Wakers popped by
   [signal] may belong to tasks already woken by something else (a timeout,
   a kill); the scheduler's generation guard makes those calls no-ops, so a
   spurious pop is harmless — waiters must re-check their predicate, exactly
   as with POSIX condition variables. *)

(* The name is [prefix ^ base ^ suffix], kept in parts: a cond is often
   created per request and never waited on, so the name and the two wait
   reasons are only built when first needed, then cached ([""] = not yet;
   a built reason is never empty). The registers handed to
   [Sched.suspend] are cached the same way, so a steady stream of waits
   on one cond builds no closure. [rename] swaps the base and clears
   the cached reasons, so a cond reused under another name reads as a
   fresh one would. *)
type t = {
  prefix : string;
  mutable base : string;
  suffix : string;
  mutable reason : string;
  mutable reason_timed : string;
  waiters : (unit -> unit) Ring.t;
  mutable wait_register : (unit -> unit) -> unit;
  (* the first-wait register of [await_timeout] for [timed_timeout]; a
     timeout that reaches a suspend is positive, so [0L] means none yet *)
  mutable timed_timeout : int64;
  mutable timed_register : (unit -> unit) -> unit;
}

let unset (_ : unit -> unit) = ()

let create ?(prefix = "") ?(suffix = "") base =
  {
    prefix;
    base;
    suffix;
    reason = "";
    reason_timed = "";
    waiters = Ring.create ~dummy:ignore;
    wait_register = unset;
    timed_timeout = 0L;
    timed_register = unset;
  }

let name c = c.prefix ^ c.base ^ c.suffix

let rename c base =
  c.base <- base;
  c.reason <- "";
  c.reason_timed <- ""
let waiter_count c = Ring.length c.waiters

let reason c =
  if c.reason = "" then c.reason <- "cond " ^ name c;
  c.reason

let reason_timed c =
  if c.reason_timed = "" then c.reason_timed <- "cond " ^ name c ^ " (timed)";
  c.reason_timed

let wait c =
  if c.wait_register == unset then c.wait_register <- Ring.push c.waiters;
  Sched.suspend ~reason:(reason c) ~register:c.wait_register

let signal c = if not (Ring.is_empty c.waiters) then (Ring.pop c.waiters) ()

(* Wakes exactly the waiters queued now, oldest first. *)
let broadcast c =
  for _ = 1 to Ring.length c.waiters do
    (Ring.pop c.waiters) ()
  done

(* Wait until [pred ()] holds, re-checking after every wake-up. *)
let rec await c pred = if not (pred ()) then begin wait c; await c pred end

(* The first wait starts at the instant the deadline was taken, so its
   timer is a fixed-delay [Sched.after], registered by a closure that
   depends only on the cond and the timeout. *)
let first_register c timeout =
  if not (Int64.equal c.timed_timeout timeout) then begin
    c.timed_timeout <- timeout;
    c.timed_register <-
      (fun waker ->
        Ring.push c.waiters waker;
        Sched.after (Sched.get ()) timeout waker)
  end;
  c.timed_register

(* A re-wait after a spurious wake-up arms the remaining time at the
   absolute deadline. [start] is the clock's own box, so the deadline is
   computed where it is compared and never boxed on the first wait. *)
let rec await_deadline s c pred start timeout =
  if pred () then true
  else
    let deadline = Int64.add start timeout in
    if Sched.now s >= deadline then false
    else begin
      Sched.suspend ~reason:(reason_timed c)
        ~register:(fun waker ->
          Ring.push c.waiters waker;
          Sched.at s deadline waker);
      await_deadline s c pred start timeout
    end

(* Wait for the predicate with a deadline; [false] means timed out. *)
let await_timeout c pred ~timeout =
  let s = Sched.get () in
  let start = Sched.now s in
  if pred () then true
  else if Sched.now s >= Int64.add start timeout then false
  else begin
    Sched.suspend ~reason:(reason_timed c) ~register:(first_register c timeout);
    await_deadline s c pred start timeout
  end
