(* Simulated memory subsystem: an allocation accountant with a GC-pause
   model. When utilisation crosses [pause_threshold], allocations stall for
   a duration that grows with pressure — the "long GC pause" behaviour the
   paper's §3.3 signal-checker example detects by measuring sleep overshoot.
   Leaks are produced by components that alloc without freeing. *)

exception Out_of_memory of string

type t = {
  name : string;
  capacity : int;
  reg : Faultreg.t;
  alloc_site : string; (* interned "mem:<name>:alloc", built once *)
  mutable used : int;
  mutable peak : int;
  mutable allocs : int;
  mutable frees : int;
  mutable pauses : int;
  mutable total_pause_ns : int64;
}

let pause_threshold = 0.80 (* utilisation above which stalls begin *)
let max_pause = Wd_sim.Time.ms 400 (* stall at 100% utilisation *)

let create ~reg ~capacity name =
  if capacity <= 0 then invalid_arg "Memory.create: capacity must be positive";
  {
    name;
    capacity;
    reg;
    alloc_site = Wd_sim.Site.str (Wd_sim.Site.intern ("mem:" ^ name ^ ":alloc"));
    used = 0;
    peak = 0;
    allocs = 0;
    frees = 0;
    pauses = 0;
    total_pause_ns = 0L;
  }

let name m = m.name
let used m = m.used
let utilisation m = float_of_int m.used /. float_of_int m.capacity

let stats m = (m.allocs, m.frees, m.peak, m.pauses, m.total_pause_ns)

(* Pause duration for the current utilisation: zero below the threshold,
   quadratic growth up to [max_pause] at full capacity. *)
let pause_for m =
  let u = utilisation m in
  if u <= pause_threshold then 0L
  else
    let x = (u -. pause_threshold) /. (1.0 -. pause_threshold) in
    Int64.of_float (Int64.to_float max_pause *. x *. x)

let alloc m size =
  if size < 0 then invalid_arg "Memory.alloc: negative size";
  let s = Wd_sim.Sched.get () in
  let now = Wd_sim.Sched.now s in
  let behaviours =
    if Faultreg.armed m.reg then
      Faultreg.consult m.reg ~site:m.alloc_site ~now
    else []
  in
  (match behaviours with
  | [] -> ()
  | _ -> (
      match
        Faultreg.apply_common behaviours ~now
          ~stop_of:(Faultreg.stop_of m.reg)
      with
      | Result.Error msg -> raise (Out_of_memory msg)
      | Result.Ok _ -> ()));
  if m.used + size > m.capacity then
    raise (Out_of_memory (Fmt.str "%s: %d + %d > %d" m.name m.used size m.capacity));
  let pause = pause_for m in
  if pause > 0L then begin
    m.pauses <- m.pauses + 1;
    m.total_pause_ns <- Int64.add m.total_pause_ns pause;
    Wd_sim.Sched.sleep pause
  end;
  m.used <- m.used + size;
  if m.used > m.peak then m.peak <- m.used;
  m.allocs <- m.allocs + 1

let free m size =
  if size < 0 then invalid_arg "Memory.free: negative size";
  m.used <- max 0 (m.used - size);
  m.frees <- m.frees + 1
