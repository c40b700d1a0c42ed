(* Simulated mutexes. Non-reentrant, owner-tracked, and capable of real
   deadlock: a lock cycle leaves the tasks blocked forever, which the
   scheduler surfaces as [Deadlock] and watchdog checkers surface as hangs.
   Ownership hand-off goes through the wait queue (no barging), keeping runs
   deterministic. *)

type t = {
  name : string;
  mutable owner : Sched.task option;
  cond : Cond.t;
  mutable acquisitions : int;
  mutable contended : int;
}

let create name =
  {
    name;
    owner = None;
    cond = Cond.create (Fmt.str "mutex %s" name);
    acquisitions = 0;
    contended = 0;
  }

let owner m = m.owner
let locked m = m.owner <> None
let acquisitions m = m.acquisitions
let contended m = m.contended

let lock m =
  let s = Sched.get () in
  let me = Sched.self s in
  (match m.owner with
  | Some t when t == me ->
      failwith (Fmt.str "Smutex.lock %s: non-reentrant, already held" m.name)
  | Some _ | None -> ());
  if m.owner <> None then m.contended <- m.contended + 1;
  Cond.await m.cond (fun () -> m.owner = None);
  m.owner <- Some me;
  m.acquisitions <- m.acquisitions + 1

let try_lock m =
  let s = Sched.get () in
  if m.owner = None then begin
    m.owner <- Some (Sched.self s);
    m.acquisitions <- m.acquisitions + 1;
    true
  end
  else false

let unlock m =
  let s = Sched.get () in
  let me = Sched.self s in
  (match m.owner with
  | Some t when t == me -> ()
  | Some _ -> failwith (Fmt.str "Smutex.unlock %s: not the owner" m.name)
  | None -> failwith (Fmt.str "Smutex.unlock %s: not locked" m.name));
  m.owner <- None;
  Cond.signal m.cond

(* [with_lock m f] releases the lock whatever [f] does — including when the
   task is killed while running [f]. *)
let with_lock m f =
  lock m;
  match f () with
  | v ->
      unlock m;
      v
  | exception e ->
      (* The task may have been cancelled inside [f]; still release so other
         tasks are not wedged by a dead owner. *)
      unlock m;
      raise e
