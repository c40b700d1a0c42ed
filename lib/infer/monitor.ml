(* Runtime trace consumer (stage 3a): the live counterpart of the miner.
   One monitor per booted world owns the scheduler's trace cursor and folds
   new op events into per-key state that the compiled inferred checkers
   query: in-flight operations (for envelope hangs), worst completed
   duration (for fail-slow, latched via max), last-start times (for gap
   liveness), failure signatures, first occurrences (for ordering) and
   same-target overlaps (for exclusion).

   Draining is cheap and idempotent between events; every checker calls
   [drain] before evaluating, so whichever runs first in a tick pays the
   fold. If events were overwritten between drains (ring overflow), the
   in-flight table is cleared rather than risk a stale entry surfacing as a
   phantom hang: monotone counters survive, liveness re-arms.

   The fold reads op slots in place ([Trace.iter_ops]) and indexes keys by
   op site id. Each key's target is interned once, when the key is first
   seen, so an [Op_start] scans only the keys sharing its target; the key
   strings are needed only by the queries. *)

module Trace = Wd_sim.Trace
module Site = Wd_sim.Site

type key_state = {
  mutable st_started : int;
  mutable st_completed : int;
  mutable st_failed : int;
  mutable st_first_err : string;
  mutable st_last_start : int64;
  mutable st_worst : int64; (* max completed duration *)
  mutable st_worst_at : int64;
  mutable st_first_seen : int64;
  mutable st_inflight : (int * int64 * string) list;
      (* (task_id, started, func); short: concurrent ops per key are few *)
}

type key = {
  k_site : Site.id;
  k_name : string;
  k_group : key list ref; (* every key on the same target, this one too *)
  k_st : key_state;
}

type t = {
  sched : Wd_sim.Sched.t;
  trace : Trace.t;
  mutable cursor : int;
  mutable dropped : int;
  mutable by_site : key option array; (* index = op site id *)
  by_name : (string, key) Hashtbl.t; (* the query index *)
  groups : (string, key list ref) Hashtbl.t; (* by target *)
  overlaps : (string * string, int64) Hashtbl.t; (* first overlap instant *)
  overlap_ids : (int, unit) Hashtbl.t; (* the same pairs, by site ids *)
}

let create ?(capacity = 1 lsl 16) sched =
  let trace = Trace.create ~capacity () in
  Wd_sim.Sched.set_trace sched trace;
  {
    sched;
    trace;
    cursor = 0;
    dropped = 0;
    by_site = Array.make 64 None;
    by_name = Hashtbl.create 64;
    groups = Hashtbl.create 16;
    overlaps = Hashtbl.create 16;
    overlap_ids = Hashtbl.create 16;
  }

let add_key t site =
  let name = Site.str site in
  let target = Mine.target_of_key name in
  let group =
    match Hashtbl.find_opt t.groups target with
    | Some g -> g
    | None ->
        let g = ref [] in
        Hashtbl.add t.groups target g;
        g
  in
  let k =
    {
      k_site = site;
      k_name = name;
      k_group = group;
      k_st =
        {
          st_started = 0;
          st_completed = 0;
          st_failed = 0;
          st_first_err = "";
          st_last_start = -1L;
          st_worst = 0L;
          st_worst_at = 0L;
          st_first_seen = -1L;
          st_inflight = [];
        };
    }
  in
  if site >= Array.length t.by_site then begin
    let bigger = Array.make (max (site + 1) (2 * Array.length t.by_site)) None in
    Array.blit t.by_site 0 bigger 0 (Array.length t.by_site);
    t.by_site <- bigger
  end;
  t.by_site.(site) <- Some k;
  Hashtbl.add t.by_name name k;
  group := k :: !group;
  k

let key t site =
  if site < Array.length t.by_site then
    match t.by_site.(site) with Some k -> k | None -> add_key t site
  else add_key t site

let rec other_task task = function
  | [] -> false
  | (task', _, _) :: rest -> task' <> task || other_task task rest

(* Drop every in-flight entry of [task]; unchanged lists are returned as
   they are. *)
let rec without_task task = function
  | [] -> []
  | ((task', _, _) as e) :: rest as l ->
      if task' = task then without_task task rest
      else
        let rest' = without_task task rest in
        if rest' == rest then l else e :: rest'

(* First instant [a] and [b] were seen in flight together. *)
let note_overlap t a b at =
  let lo = min a.k_site b.k_site and hi = max a.k_site b.k_site in
  let id = (lo lsl 31) lor hi in
  if not (Hashtbl.mem t.overlap_ids id) then begin
    Hashtbl.add t.overlap_ids id ();
    let pair =
      if a.k_name < b.k_name then (a.k_name, b.k_name)
      else (b.k_name, a.k_name)
    in
    Hashtbl.add t.overlaps pair at
  end

let rec scan_group t k task at = function
  | [] -> ()
  | other :: rest ->
      if other != k && other_task task other.k_st.st_inflight then
        note_overlap t k other at;
      scan_group t k task at rest

let fold_op t tag ~at ~task_id ~op ~node:_ ~func ~dur ~note =
  let k = key t op in
  let st = k.k_st in
  match (tag : Trace.op_tag) with
  | Start ->
      let at = Int64.of_int at in
      st.st_started <- st.st_started + 1;
      st.st_last_start <- at;
      if st.st_first_seen < 0L then st.st_first_seen <- at;
      (* same-target overlap with any other in-flight key *)
      scan_group t k task_id at !(k.k_group);
      st.st_inflight <- (task_id, at, Site.str func) :: st.st_inflight
  | End ->
      st.st_completed <- st.st_completed + 1;
      st.st_inflight <- without_task task_id st.st_inflight;
      let dur = Int64.of_int dur in
      if dur > st.st_worst then begin
        st.st_worst <- dur;
        st.st_worst_at <- Int64.of_int at
      end
  | Fail ->
      st.st_failed <- st.st_failed + 1;
      if st.st_first_err = "" then st.st_first_err <- note;
      st.st_inflight <- without_task task_id st.st_inflight

let drain t =
  let lost = Trace.lost t.trace t.cursor in
  if lost > 0 then begin
    t.dropped <- t.dropped + lost;
    (* stale in-flight entries would read as phantom hangs; reset them *)
    Hashtbl.iter (fun _ k -> k.k_st.st_inflight <- []) t.by_name
  end;
  if Trace.total t.trace > t.cursor then begin
    Trace.iter_ops t.trace t.cursor (fold_op t);
    t.cursor <- Trace.total t.trace
  end

(* --- queries (after a drain) ------------------------------------------- *)

let view t key =
  match Hashtbl.find_opt t.by_name key with
  | Some k -> Some k.k_st
  | None -> None

let seen t key =
  match view t key with Some st -> st.st_started > 0 | None -> false

let oldest_inflight t key =
  match view t key with
  | None | Some { st_inflight = []; _ } -> None
  | Some st ->
      Some
        (List.fold_left
           (fun ((_, best, _) as acc) ((_, started, _) as e) ->
             if started < best then e else acc)
           (List.hd st.st_inflight) (List.tl st.st_inflight))

let overlapped_at t a b =
  let pair = if a < b then (a, b) else (b, a) in
  Hashtbl.find_opt t.overlaps pair

let dropped t = t.dropped
let keys_tracked t = Hashtbl.length t.by_name
