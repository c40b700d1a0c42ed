(* Runtime trace consumer (stage 3a): the live counterpart of the miner.
   One monitor per booted world holds a cursor on the scheduler's trace
   ring and folds new op events into per-key state that the compiled
   inferred checkers query: in-flight operations (for envelope hangs),
   worst completed duration (for fail-slow, latched via max), last-start
   times (for gap liveness), failure signatures, first occurrences (for
   ordering) and same-target overlaps (for exclusion).

   Draining is cheap and idempotent between events; every checker calls
   [drain] before evaluating, so whichever runs first in a tick pays the
   fold. Between checker ticks the ring drains the cursor itself before it
   would overwrite an unread event, so the fold sees every event.

   The fold reads op slots in place (a [Trace.cursor]) and indexes keys by
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

(* The per-key state the fold updates and the queries read. *)
type index = {
  mutable by_site : key option array; (* index = op site id *)
  by_name : (string, key) Hashtbl.t; (* the query index *)
  groups : (string, key list ref) Hashtbl.t; (* by target *)
  overlaps : (string * string, int64) Hashtbl.t; (* first overlap instant *)
  overlap_ids : (int, unit) Hashtbl.t; (* the same pairs, by site ids *)
}

type t = { index : index; cursor : Trace.cursor }

let add_key ix site =
  let name = Site.str site in
  let target = Mine.target_of_key name in
  let group =
    match Hashtbl.find_opt ix.groups target with
    | Some g -> g
    | None ->
        let g = ref [] in
        Hashtbl.add ix.groups target g;
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
  if site >= Array.length ix.by_site then begin
    let bigger = Array.make (max (site + 1) (2 * Array.length ix.by_site)) None in
    Array.blit ix.by_site 0 bigger 0 (Array.length ix.by_site);
    ix.by_site <- bigger
  end;
  ix.by_site.(site) <- Some k;
  Hashtbl.add ix.by_name name k;
  group := k :: !group;
  k

let key ix site =
  if site < Array.length ix.by_site then
    match ix.by_site.(site) with Some k -> k | None -> add_key ix site
  else add_key ix site

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
let note_overlap ix a b at =
  let lo = min a.k_site b.k_site and hi = max a.k_site b.k_site in
  let id = (lo lsl 31) lor hi in
  if not (Hashtbl.mem ix.overlap_ids id) then begin
    Hashtbl.add ix.overlap_ids id ();
    let pair =
      if a.k_name < b.k_name then (a.k_name, b.k_name)
      else (b.k_name, a.k_name)
    in
    Hashtbl.add ix.overlaps pair at
  end

let rec scan_group ix k task at = function
  | [] -> ()
  | other :: rest ->
      if other != k && other_task task other.k_st.st_inflight then
        note_overlap ix k other at;
      scan_group ix k task at rest

let fold_op ix tag ~at ~task_id ~op ~node:_ ~func ~dur ~note =
  let k = key ix op in
  let st = k.k_st in
  match (tag : Trace.op_tag) with
  | Start ->
      let at = Int64.of_int at in
      st.st_started <- st.st_started + 1;
      st.st_last_start <- at;
      if st.st_first_seen < 0L then st.st_first_seen <- at;
      (* same-target overlap with any other in-flight key *)
      scan_group ix k task_id at !(k.k_group);
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

let create sched =
  let index =
    {
      by_site = Array.make 64 None;
      by_name = Hashtbl.create 64;
      groups = Hashtbl.create 16;
      overlaps = Hashtbl.create 16;
      overlap_ids = Hashtbl.create 16;
    }
  in
  { index; cursor = Trace.cursor (Wd_sim.Sched.trace sched) (fold_op index) }

let drain t = Trace.drain t.cursor

(* --- queries (after a drain) ------------------------------------------- *)

let view t key =
  match Hashtbl.find_opt t.index.by_name key with
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
  Hashtbl.find_opt t.index.overlaps pair

let keys_tracked t = Hashtbl.length t.index.by_name
