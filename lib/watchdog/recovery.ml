(* Cheap recovery (§5.2): with the watchdog's localisation information, a
   failure can be repaired by microrebooting just the affected component —
   replacing the wedged or dead task — instead of restarting the whole
   process.

   A component is a named set of functions plus a respawn closure. Wired as
   a driver action, [action] maps each report's pinpointed function to its
   owning component and reboots it, with a per-component backoff so a
   persistent fault cannot trigger a reboot storm. *)

type component = {
  comp_name : string;
  comp_funcs : string list;  (* functions this component owns *)
  respawn : unit -> Wd_sim.Sched.task;
  mutable task : Wd_sim.Sched.task;
  mutable restarts : int;
  mutable last_restart_at : int64;
}

type event = {
  ev_at : int64;
  ev_component : string;
  ev_reason : string;
}

type t = {
  sched : Wd_sim.Sched.t;
  backoff : int64;        (* minimum interval between reboots of one component *)
  mutable components : component list;
  mutable events : event list;
  mutable escalations : string list; (* components that exhausted their budget *)
}

let max_restarts = 10 (* per component; beyond this, give up (escalate) *)

let create ?(backoff = Wd_sim.Time.sec 5) sched =
  { sched; backoff; components = []; events = []; escalations = [] }

let register t ~name ~funcs ~respawn ~task =
  t.components <-
    {
      comp_name = name;
      comp_funcs = funcs;
      respawn;
      task;
      restarts = 0;
      (* far past, but safe against Int64 subtraction overflow *)
      last_restart_at = -1_000_000_000_000_000L;
    }
    :: t.components

let component_for t func =
  List.find_opt (fun c -> List.mem func c.comp_funcs) t.components

let events t = List.rev t.events
let escalations t = List.rev t.escalations

let restarts t ~name =
  match List.find_opt (fun c -> c.comp_name = name) t.components with
  | Some c -> c.restarts
  | None -> 0

(* [reason] is a thunk: reboot attempts that bounce off the backoff window
   or an exhausted budget — the common case during a report storm — never
   pay for formatting the reason string. It is forced exactly once, for the
   event log of an actual reboot. *)
let microreboot t c ~reason =
  let now = Wd_sim.Sched.now t.sched in
  if Int64.sub now c.last_restart_at < t.backoff then ()
  else if c.restarts >= max_restarts then begin
    if not (List.mem c.comp_name t.escalations) then
      t.escalations <- c.comp_name :: t.escalations
  end
  else begin
    c.last_restart_at <- now;
    c.restarts <- c.restarts + 1;
    t.events <-
      { ev_at = now; ev_component = c.comp_name; ev_reason = reason () }
      :: t.events;
    (* replace the task: kill whatever is left of the old one, then respawn *)
    Wd_sim.Sched.kill t.sched c.task;
    c.task <- c.respawn ()
  end

(* Supervision sweep: a component whose task died of an exception is
   rebooted even without a watchdog report — the supervisor half of the
   microreboot story (report-driven reboots handle wedged-but-alive
   components; the sweep handles dead ones). *)
let supervise ?(period = Wd_sim.Time.sec 1) t =
  Wd_sim.Sched.spawn ~name:"recovery-supervisor" ~daemon:true t.sched (fun () ->
      while true do
        Wd_sim.Sched.sleep period;
        List.iter
          (fun c ->
            match Wd_sim.Sched.task_status c.task with
            | Some (Wd_sim.Sched.Failed e) ->
                microreboot t c
                  ~reason:(fun () ->
                    Fmt.str "task died: %s" (Printexc.to_string e))
            | Some Wd_sim.Sched.Exited
            | Some Wd_sim.Sched.Killed
            | None ->
                ())
          t.components
      done)

(* Command entry point for externally-driven recovery: a fleet plane that
   indicted this process names the faulty function (from the shipped mimic
   report's localisation); map it to its owning component and microreboot.
   Returns whether the function mapped to a registered component — the
   reboot itself is still subject to backoff and the restart budget. *)
let recover_function t ~func ~reason =
  match component_for t func with
  | None -> false
  | Some c ->
      microreboot t c ~reason:(fun () -> reason);
      true

(* The driver action: reboot the component owning the report's pinpointed
   function. Reports without localisation cannot be mapped and are left to
   coarser recovery (full restart), which this module deliberately does not
   perform. *)
let action t (r : Report.t) =
  match r.Report.loc with
  | None -> ()
  | Some loc -> (
      match component_for t (Wd_ir.Loc.func loc) with
      | None -> ()
      | Some c ->
          microreboot t c ~reason:(fun () ->
              Fmt.str "%s: %s at %a" r.Report.checker_id
                (Report.fkind_name r.Report.fkind)
                Wd_ir.Loc.pp loc))

let pp_event ppf e =
  Fmt.pf ppf "[%a] microreboot %s (%s)" Wd_sim.Time.pp e.ev_at e.ev_component
    e.ev_reason
