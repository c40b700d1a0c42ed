(* Central fault-injection registry.

   Every environment operation names a *site* string such as
   "disk:data:write:/wal/0042" or "net:follower1:send". Before executing, the
   operation consults the registry; matching active faults dictate extra
   behaviour (delay, hang, error, corruption, drop). The registry also logs
   every activation — this is the ground truth that experiment metrics
   compare detector reports against. *)

type behaviour =
  | Delay of int64        (* add fixed latency *)
  | Slow_factor of float  (* multiply modelled latency *)
  | Hang                  (* block until the fault window closes *)
  | Error of string       (* fail the operation with this message *)
  | Corrupt               (* silently damage the payload *)
  | Drop                  (* network only: lose the message *)

type fault = {
  id : string;
  site_pattern : string;  (* exact match, or prefix match ending in '*' *)
  behaviour : behaviour;
  start_at : int64;
  stop_at : int64;        (* Time.never for an unbounded fault *)
  once : bool;            (* deactivate after first trigger *)
}

type trigger = { at : int64; fault_id : string; site : string }

type t = {
  mutable faults : fault list;
  mutable triggers : trigger list;
  mutable spent : (string, unit) Hashtbl.t; (* ids of exhausted once-faults *)
}

let create () = { faults = []; triggers = []; spent = Hashtbl.create 7 }

let inject t fault = t.faults <- fault :: t.faults

let clear t =
  t.faults <- [];
  Hashtbl.reset t.spent

let remove t ~id = t.faults <- List.filter (fun f -> f.id <> id) t.faults

let faults t = t.faults
let triggers t = List.rev t.triggers

(* Hot-path guard: with no faults injected (every clean perf/load run, and
   every op outside a fault window after [clear]) a consult can match
   nothing and record nothing — callers skip building the site string
   entirely. *)
let armed t = t.faults <> []

let site_matches ~pattern ~site =
  let n = String.length pattern in
  if n > 0 && pattern.[n - 1] = '*' then
    let prefix = String.sub pattern 0 (n - 1) in
    String.length site >= String.length prefix
    && String.sub site 0 (String.length prefix) = prefix
  else pattern = site

let active_at f ~now = now >= f.start_at && now < f.stop_at

(* Faults matching [site] right now, oldest injection first. Records each
   match as a trigger and retires once-faults. *)
let consult t ~site ~now =
  let matching =
    List.filter
      (fun f ->
        active_at f ~now
        && (not (Hashtbl.mem t.spent f.id))
        && site_matches ~pattern:f.site_pattern ~site)
      t.faults
  in
  List.iter
    (fun f ->
      t.triggers <- { at = now; fault_id = f.id; site } :: t.triggers;
      if f.once then Hashtbl.replace t.spent f.id ())
    matching;
  List.rev_map (fun f -> (f.id, f.behaviour)) (List.rev matching)

(* First activation instant of a fault id, from the trigger log. Experiments
   use this as the failure-start timestamp when computing detection
   latency. *)
let first_trigger t ~id =
  (* [t.triggers] is newest-first; the first activation is the oldest. *)
  match List.filter (fun tr -> tr.fault_id = id) (List.rev t.triggers) with
  | oldest :: _ -> Some oldest.at
  | [] -> None

(* Helper used by env subsystems: apply the blocking/latency consequences of
   the matched behaviours. Returns [Ok corrupted?] or [Error msg]; the caller
   interprets corruption and drop for its own data model. *)
let apply_common behaviours ~now:_ ~stop_of =
  let corrupt = ref false in
  let dropped = ref false in
  let err = ref None in
  List.iter
    (fun (id, b) ->
      match b with
      | Delay d -> Wd_sim.Sched.sleep d
      | Slow_factor _ -> () (* handled by caller's latency model *)
      | Hang ->
          let stop = stop_of id in
          if stop = Wd_sim.Time.never then
            Wd_sim.Sched.suspend ~reason:(Fmt.str "fault %s hang" id)
              ~register:(fun _waker -> ())
          else begin
            let s = Wd_sim.Sched.get () in
            Wd_sim.Sched.suspend ~reason:(Fmt.str "fault %s hang" id)
              ~register:(fun waker -> Wd_sim.Sched.at s stop waker)
          end
      | Error m -> if !err = None then err := Some m
      | Corrupt -> corrupt := true
      | Drop -> dropped := true)
    behaviours;
  match !err with
  | Some m -> Result.Error m
  | None -> Result.Ok (!corrupt, !dropped)

let slow_factor behaviours =
  List.fold_left
    (fun acc (_, b) -> match b with Slow_factor f -> acc *. f | _ -> acc)
    1.0 behaviours

let stop_of t id =
  match List.find_opt (fun f -> f.id = id) t.faults with
  | Some f -> f.stop_at
  | None -> Wd_sim.Time.never
