(* Trace miner (FlyCatcher-style, stage 1): collect operation-level events
   from passing runs and aggregate them into per-key statistics plus
   ordering/concurrency observations — the raw material the synthesizer
   fits invariants to.

   A [recorder] is a cursor on the scheduler's bounded trace ring that
   copies op events into an unbounded columnar accumulator. The ring drains
   it before overwriting anything it has not read, so arbitrarily long
   mining runs lose no events. Aggregation is pure and deterministic: it
   works on interned site ids, and every table is turned into strings and
   sorted before it leaves. *)

module Trace = Wd_sim.Trace
module Site = Wd_sim.Site

(* One run's op events, in order, as parallel columns: the recorder's
   accumulator and [aggregate]'s input. Only the first [len] slots are
   meaningful. *)
type ops = {
  mutable len : int;
  mutable o_tag : Trace.op_tag array;
  mutable o_at : int array; (* virtual ns *)
  mutable o_task : int array;
  mutable o_op : Site.id array;
  mutable o_node : Site.id array;
  mutable o_func : Site.id array;
  mutable o_dur : int array; (* End only *)
  mutable o_note : string array; (* Fail only *)
}

let ops_create n =
  let n = max n 1 in
  {
    len = 0;
    o_tag = Array.make n Trace.Start;
    o_at = Array.make n 0;
    o_task = Array.make n 0;
    o_op = Array.make n 0;
    o_node = Array.make n 0;
    o_func = Array.make n 0;
    o_dur = Array.make n 0;
    o_note = Array.make n "";
  }

(* Copy the first [len] slots into columns of length [n]. *)
let resize o n =
  let col a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 o.len;
    b
  in
  o.o_tag <- col o.o_tag Trace.Start;
  o.o_at <- col o.o_at 0;
  o.o_task <- col o.o_task 0;
  o.o_op <- col o.o_op 0;
  o.o_node <- col o.o_node 0;
  o.o_func <- col o.o_func 0;
  o.o_dur <- col o.o_dur 0;
  o.o_note <- col o.o_note ""

let push o tag ~at ~task_id ~op ~node ~func ~dur ~note =
  let i = o.len in
  if i = Array.length o.o_at then resize o (max 1 (2 * i));
  o.o_tag.(i) <- tag;
  o.o_at.(i) <- at;
  o.o_task.(i) <- task_id;
  o.o_op.(i) <- op;
  o.o_node.(i) <- node;
  o.o_func.(i) <- func;
  o.o_dur.(i) <- dur;
  o.o_note.(i) <- note;
  o.len <- i + 1

let ops_length o = o.len

let iter_ops o f =
  for i = 0 to o.len - 1 do
    f o.o_tag.(i) ~at:o.o_at.(i) ~task_id:o.o_task.(i) ~op:o.o_op.(i)
      ~node:o.o_node.(i) ~func:o.o_func.(i) ~dur:o.o_dur.(i)
      ~note:o.o_note.(i)
  done

let ops_of_events events =
  let o = ops_create (List.length events) in
  List.iter
    (fun (e : Trace.event) ->
      let at = Int64.to_int e.Trace.at and task_id = e.Trace.task_id in
      let site = Site.intern in
      match e.Trace.kind with
      | Trace.Op_start { op; node; func } ->
          push o Trace.Start ~at ~task_id ~op:(site op) ~node:(site node)
            ~func:(site func) ~dur:0 ~note:""
      | Trace.Op_end { op; node; func; dur } ->
          push o Trace.End ~at ~task_id ~op:(site op) ~node:(site node)
            ~func:(site func) ~dur:(Int64.to_int dur) ~note:""
      | Trace.Op_fail { op; node; func; err } ->
          push o Trace.Fail ~at ~task_id ~op:(site op) ~node:(site node)
            ~func:(site func) ~dur:0 ~note:err
      | Trace.Spawned | Trace.Blocked _ | Trace.Resumed | Trace.Finished _ ->
          ())
    events;
  o

type run_obs = {
  ro_id : string;
  ro_seed : int;
  ro_span : int64; (* virtual time covered: first event .. final drain *)
  ro_ops : ops;
}

type recorder = {
  rec_sched : Wd_sim.Sched.t;
  rec_cursor : Trace.cursor;
  rec_ops : ops;
}

let attach sched =
  let ops = ops_create 4096 in
  {
    rec_sched = sched;
    rec_cursor = Trace.cursor (Wd_sim.Sched.trace sched) (push ops);
    rec_ops = ops;
  }

let finish r ~id ~seed =
  Trace.drain r.rec_cursor;
  let o = r.rec_ops in
  resize o o.len;
  let span =
    if o.len = 0 then 0L
    else Int64.sub (Wd_sim.Sched.now r.rec_sched) (Int64.of_int o.o_at.(0))
  in
  {
    ro_id = id;
    ro_seed = seed;
    ro_span = span;
    ro_ops = o;
  }

(* --- aggregation ------------------------------------------------------- *)

type key_stats = {
  ks_key : string;
  ks_target : string;
  ks_runs : int; (* runs in which the key completed at least once *)
  ks_count : int; (* completions across all runs *)
  ks_fails : int;
  ks_durs : int64 array; (* completed durations, sorted ascending *)
  ks_max_gap : int64;
      (* worst start-to-start silence across runs, including the tail to
         the end of each run — the liveness bound passing runs exhibited *)
  ks_func : string; (* enclosing function of the first observation *)
  ks_locks : string list;
      (* lockset evidence: sync keys in flight in the same task at EVERY
         observed start of this op, sorted. A common element between two
         keys proves their mutual exclusion rather than inferring it from
         an absence of observed overlap. *)
}

type observations = {
  obs_runs : int;
  obs_keys : key_stats list; (* sorted by key *)
  obs_orders : string list list;
      (* per run: keys in order of first start — ordering observations *)
  obs_overlaps : (string * string) list;
      (* sorted key pairs (a < b), same target, seen in flight concurrently *)
  obs_events : int;
}

let target_of_key key =
  match String.split_on_char ':' key with _ :: t :: _ -> t | _ -> ""

(* Mutable per-key accumulator used only inside [aggregate], indexed by op
   site id. The key's target and sync flag are computed once, when the key
   is first seen; strings are materialised only for the observations. *)
type acc = {
  a_site : Site.id;
  a_target : int; (* interned target, comparable by id *)
  a_sync : bool;
  mutable a_runs : int;
  mutable a_count : int;
  mutable a_fails : int;
  mutable a_durs : int array; (* first [a_count] slots *)
  mutable a_max_gap : int;
  mutable a_func : string;
  mutable a_last_run : int; (* run index last counted toward a_runs *)
  mutable a_locks : Site.id list option;
      (* intersection of held-lock multisets across starts, unordered;
         None = no start yet *)
  mutable a_start_run : int; (* run index of [a_last_start] *)
  mutable a_last_start : int;
}

let is_sync_key key =
  String.length key >= 5 && String.sub key 0 5 = "sync:"

let aggregate runs =
  let by_site = ref (Array.make (Site.count ()) None) in
  let keys = ref [] in
  let targets : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let overlaps : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let acc_of site func =
    if site >= Array.length !by_site then begin
      let bigger = Array.make (site + 1) None in
      Array.blit !by_site 0 bigger 0 (Array.length !by_site);
      by_site := bigger
    end;
    match !by_site.(site) with
    | Some a -> a
    | None ->
        let key = Site.str site in
        let target = target_of_key key in
        let a_target =
          match Hashtbl.find_opt targets target with
          | Some g -> g
          | None ->
              let g = Hashtbl.length targets in
              Hashtbl.add targets target g;
              g
        in
        let a =
          {
            a_site = site;
            a_target;
            a_sync = is_sync_key key;
            a_runs = 0;
            a_count = 0;
            a_fails = 0;
            a_durs = [||];
            a_max_gap = 0;
            a_func = func;
            a_last_run = -1;
            a_locks = None;
            a_start_run = -1;
            a_last_start = 0;
          }
        in
        !by_site.(site) <- Some a;
        keys := a :: !keys;
        a
  in
  let bump_gap a gap = if gap > a.a_max_gap then a.a_max_gap <- gap in
  let orders = ref [] in
  let events = ref 0 in
  List.iteri
    (fun run_idx ro ->
      let o = ro.ro_ops in
      events := !events + o.len;
      let first_order = ref [] in
      (* per-task stack of in-flight ops (innermost first): a sync key on
         the stack is a lock this task currently holds or is acquiring.
         Tasks with nothing in flight have no entry. *)
      let inflight : (int, acc list) Hashtbl.t = Hashtbl.create 8 in
      let stack_of task =
        match Hashtbl.find_opt inflight task with Some l -> l | None -> []
      in
      let pop task a =
        let rec drop = function
          | [] -> []
          | x :: rest -> if x == a then rest else x :: drop rest
        in
        match drop (stack_of task) with
        | [] -> Hashtbl.remove inflight task
        | l -> Hashtbl.replace inflight task l
      in
      let run_end = if o.len = 0 then 0 else o.o_at.(o.len - 1) in
      for i = 0 to o.len - 1 do
        let at = o.o_at.(i) and task = o.o_task.(i) in
        match o.o_tag.(i) with
        | Trace.Start ->
            let a = acc_of o.o_op.(i) (Site.str o.o_func.(i)) in
            if a.a_func = "" then a.a_func <- Site.str o.o_func.(i);
            if a.a_start_run <> run_idx then begin
              a.a_start_run <- run_idx;
              first_order := a :: !first_order
            end
            else bump_gap a (at - a.a_last_start);
            a.a_last_start <- at;
            let stack = stack_of task in
            (* lockset: sync keys this task currently has in flight *)
            let held =
              List.filter_map
                (fun x -> if x.a_sync then Some x.a_site else None)
                stack
            in
            a.a_locks <-
              Some
                (match a.a_locks with
                | None -> held
                | Some l -> List.filter (fun x -> List.mem x held) l);
            (* concurrency: any op of another task in flight on the same
               target *)
            Hashtbl.iter
              (fun task' others ->
                if task' <> task then
                  List.iter
                    (fun other ->
                      if other != a && other.a_target = a.a_target then
                        let lo = min a.a_site other.a_site
                        and hi = max a.a_site other.a_site in
                        Hashtbl.replace overlaps ((lo lsl 31) lor hi) ())
                    others)
              inflight;
            Hashtbl.replace inflight task (a :: stack)
        | Trace.End ->
            let a = acc_of o.o_op.(i) "" in
            if a.a_count = Array.length a.a_durs then begin
              let bigger = Array.make (max 8 (2 * a.a_count)) 0 in
              Array.blit a.a_durs 0 bigger 0 a.a_count;
              a.a_durs <- bigger
            end;
            a.a_durs.(a.a_count) <- o.o_dur.(i);
            a.a_count <- a.a_count + 1;
            if a.a_last_run <> run_idx then begin
              a.a_last_run <- run_idx;
              a.a_runs <- a.a_runs + 1
            end;
            pop task a
        | Trace.Fail ->
            let a = acc_of o.o_op.(i) "" in
            a.a_fails <- a.a_fails + 1;
            pop task a
      done;
      (* tail silence: from the last start of each key to the run's end *)
      List.iter (fun a -> bump_gap a (run_end - a.a_last_start)) !first_order;
      orders :=
        List.rev_map (fun a -> Site.str a.a_site) !first_order :: !orders)
    runs;
  let obs_keys =
    List.rev_map
      (fun a ->
        let key = Site.str a.a_site in
        {
          ks_key = key;
          ks_target = target_of_key key;
          ks_runs = a.a_runs;
          ks_count = a.a_count;
          ks_fails = a.a_fails;
          ks_durs =
            (let d = Array.sub a.a_durs 0 a.a_count in
             Array.sort Int.compare d;
             Array.map Int64.of_int d);
          ks_max_gap = Int64.of_int a.a_max_gap;
          ks_func = a.a_func;
          ks_locks =
            List.sort compare
              (List.map Site.str (Option.value ~default:[] a.a_locks));
        })
      !keys
    |> List.sort (fun a b -> compare a.ks_key b.ks_key)
  in
  let obs_overlaps =
    Hashtbl.fold
      (fun id () l ->
        let a = Site.str (id lsr 31) and b = Site.str (id land 0x7fffffff) in
        (if a < b then (a, b) else (b, a)) :: l)
      overlaps []
    |> List.sort compare
  in
  {
    obs_runs = List.length runs;
    obs_keys;
    obs_orders = List.rev !orders;
    obs_overlaps;
    obs_events = !events;
  }
