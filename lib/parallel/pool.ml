(* Persistent work-sharing domain pool.

   A pool of [width] lanes is backed by [width - 1] worker domains plus the
   submitting domain itself: [map] enqueues one *participation thunk* per
   worker (a single mutex acquisition for the whole batch, however large)
   and then drains the batch from the calling domain too, so no domain —
   least of all the caller — sits blocked on a condvar while there is work
   left. Inside a batch, cells are handed out by an [Atomic.t] cursor
   (fetch-and-add per cell), so the hot path takes no lock at all: a
   10^4-cell batch costs 10^4 atomic increments, not 10^4 mutex sections.

   Pools are cheap to keep alive (idle workers block on a condvar), so the
   intended usage is one process-wide pool created once and reused by every
   batch — [global]/[run_map] below. Worker domains then retain their
   domain-local analysis/compile caches across batches, which is where the
   campaign engine's reuse lives.

   Determinism: results are collected by input index, not completion order,
   and exceptions are re-raised for the lowest failing index — so a
   parallel batch is observationally identical to the sequential one.
   Distinct result slots are written by at most one domain and read by the
   caller only after the remaining-counter (an [Atomic.t]) plus the batch
   mutex have established the necessary happens-before edges. *)

type job = unit -> unit

type t = {
  width : int;
  queue : job Queue.t;
  mu : Mutex.t;
  nonempty : Condition.t;
  mutable workers : unit Domain.t list;
  mutable closed : bool;
}

let parse_jobs = function
  | None | Some "" -> Ok None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> Ok (Some n)
      | Some _ | None ->
          Error ("WD_JOBS: expected a positive integer, got " ^ String.escaped s)
      )

let default_jobs () =
  match parse_jobs (Sys.getenv_opt "WD_JOBS") with
  | Ok (Some n) -> n
  | Ok None -> Domain.recommended_domain_count ()
  | Error msg -> failwith msg

let rec worker_loop pool =
  Mutex.lock pool.mu;
  while Queue.is_empty pool.queue && not pool.closed do
    Condition.wait pool.nonempty pool.mu
  done;
  if Queue.is_empty pool.queue then Mutex.unlock pool.mu (* closed: exit *)
  else begin
    let job = Queue.pop pool.queue in
    Mutex.unlock pool.mu;
    job ();
    worker_loop pool
  end

(* [default_jobs] already counts the submitting domain as one lane, so a
   width-W pool spawns W-1 workers; the caller is the W-th lane during
   [map]. Spawning W workers — the old behaviour — oversubscribed the host
   by one domain and left the caller parked on a condvar. *)
let create ~jobs =
  let width = max 1 jobs in
  let pool =
    {
      width;
      queue = Queue.create ();
      mu = Mutex.create ();
      nonempty = Condition.create ();
      workers = [];
      closed = false;
    }
  in
  if width > 1 then
    pool.workers <-
      List.init (width - 1) (fun _ ->
          Domain.spawn (fun () -> worker_loop pool));
  pool

let jobs pool = pool.width

let shutdown pool =
  let workers =
    Mutex.lock pool.mu;
    let ws = pool.workers in
    pool.closed <- true;
    pool.workers <- [];
    Condition.broadcast pool.nonempty;
    Mutex.unlock pool.mu;
    ws
  in
  List.iter Domain.join workers

let submit pool jobs_ =
  Mutex.lock pool.mu;
  if pool.closed then begin
    Mutex.unlock pool.mu;
    invalid_arg "Pool.map: pool is shut down"
  end;
  List.iter (fun j -> Queue.push j pool.queue) jobs_;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.mu

let map pool f xs =
  if pool.closed then invalid_arg "Pool.map: pool is shut down";
  if pool.width <= 1 || List.compare_length_with xs 2 < 0 then List.map f xs
  else begin
    let inputs = Array.of_list xs in
    let n = Array.length inputs in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let remaining = Atomic.make n in
    let batch_mu = Mutex.create () in
    let batch_done = Condition.create () in
    (* Work-sharing drain loop, run by every participating domain: claim
       the next unclaimed cell, run it, repeat until the cursor runs off
       the end. Leftover participation thunks that a busy worker only pops
       after the batch completed see an exhausted cursor and return
       immediately. *)
    let rec drain () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let r =
          try Ok (f inputs.(i))
          with e -> Error (e, Printexc.get_raw_backtrace ())
        in
        results.(i) <- Some r;
        if Atomic.fetch_and_add remaining (-1) = 1 then begin
          Mutex.lock batch_mu;
          Condition.broadcast batch_done;
          Mutex.unlock batch_mu
        end;
        drain ()
      end
    in
    submit pool (List.init (min (pool.width - 1) n) (fun _ -> drain));
    drain ();
    (* The caller ran out of cells to claim; wait for in-flight ones. *)
    Mutex.lock batch_mu;
    while Atomic.get remaining > 0 do
      Condition.wait batch_done batch_mu
    done;
    Mutex.unlock batch_mu;
    Array.iter
      (function
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | Some (Ok _) | None -> ())
      results;
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error _) | None -> assert false)
         results)
  end

let map_reduce pool ~map:f ~reduce ~init xs =
  List.fold_left reduce init (map pool f xs)

let with_pool ?jobs f =
  let pool = create ~jobs:(match jobs with Some n -> n | None -> default_jobs ()) in
  match f pool with
  | v ->
      shutdown pool;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      shutdown pool;
      Printexc.raise_with_backtrace e bt

(* --- the process-wide persistent pool --- *)

let global_mu = Mutex.create ()
let global_ref = ref None
let registered_at_exit = ref false

(* Running more domains than the host has cores is a measured net loss —
   OCaml 5 minor collections are stop-the-world across domains, and on an
   oversubscribed host every minor GC becomes a scheduling round trip (5x
   on allocation-heavy simulation cells in our measurements). The shared
   pool therefore clamps the requested width to the hardware; determinism
   is unaffected (results are collected by input index at any width). *)
let effective_jobs n = max 1 (min n (Domain.recommended_domain_count ()))

let global ?jobs () =
  let want =
    effective_jobs (match jobs with Some n -> max 1 n | None -> default_jobs ())
  in
  Mutex.lock global_mu;
  match !global_ref with
  | Some p when p.width = want && not p.closed ->
      Mutex.unlock global_mu;
      p
  | prev ->
      let p = create ~jobs:want in
      global_ref := Some p;
      if not !registered_at_exit then begin
        registered_at_exit := true;
        at_exit (fun () ->
            match !global_ref with Some p -> shutdown p | None -> ())
      end;
      Mutex.unlock global_mu;
      (match prev with Some old -> shutdown old | None -> ());
      p

let run_map ?jobs f xs = map (global ?jobs ()) f xs
