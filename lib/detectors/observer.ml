(* Panorama-style observers: every requester of the monitored process is a
   logical observer; error evidence observed on request paths is aggregated
   into a per-process verdict. Catches gray failures *that clients hit*,
   but cannot say why or where — which is the limitation (§1) that
   motivates intrinsic watchdogs. *)

type evidence = Success | Failure of string | Timeout

let window = Wd_sim.Time.sec 5 (* evidence older than this is discarded *)
let threshold = 0.5 (* failure ratio that flips the verdict *)
let min_samples = 3

type t = {
  sched : Wd_sim.Sched.t;
  log : (int64 * bool) Queue.t; (* (at, bad), oldest first *)
  mutable bad : int;            (* bad entries in [log] *)
  mutable first_suspect_at : int64 option;
}

let create sched =
  { sched; log = Queue.create (); bad = 0; first_suspect_at = None }

(* Sliding window, O(1) amortised per observation: virtual time never
   decreases, so entries leave the window oldest first and pruning from the
   front of the FIFO drops exactly what a filter over the whole log would. *)
let observe t evidence =
  let now = Wd_sim.Sched.now t.sched in
  let bad = match evidence with Success -> false | Failure _ | Timeout -> true in
  Queue.push (now, bad) t.log;
  if bad then t.bad <- t.bad + 1;
  while
    (not (Queue.is_empty t.log))
    && Int64.sub now (fst (Queue.peek t.log)) > window
  do
    if snd (Queue.pop t.log) then t.bad <- t.bad - 1
  done;
  let total = Queue.length t.log in
  if
    total >= min_samples
    && float_of_int t.bad /. float_of_int total >= threshold
    && t.first_suspect_at = None
  then t.first_suspect_at <- Some now

let suspected t = t.first_suspect_at <> None
let suspected_at t = t.first_suspect_at

let observations t = Queue.length t.log

(* Convenience: wrap a client-API result into evidence. *)
let of_result = function
  | `Ok _ -> Success
  | `Timeout -> Timeout
  | `Err m -> Failure m
