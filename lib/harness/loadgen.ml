(* Heavy-traffic load plane: open- and closed-loop request generators over
   the virtual clock, with O(1) log-bucketed latency histograms sized for
   10^6+ requests per run.

   Everything is driven by virtual time, so a load run is a pure function
   of (seed, workload): latency percentiles, throughput and shed counts are
   bit-reproducible and any two configurations differing only in wall-clock
   speed (host load, CI noise) produce identical numbers. That is what
   makes the watchdog-overhead story measurable: overhead shows up as
   virtual-time inflation, not benchmark noise.

   Target systems keep the simulation alive through daemon tasks with
   pending timers, so [Sched.run ~until] never quiesces on its own; the
   driver advances the clock in bounded steps and stops on the generator's
   own completion accounting. *)

module Sched = Wd_sim.Sched

type reply = [ `Ok of Wd_ir.Ast.value | `Err of string | `Timeout ]

(* --- log-bucketed latency histogram ---

   Log-linear buckets, 8 per octave: index = v for v < 8, else
   (msb - 2) * 8 + next-3-bits. Relative quantile error is bounded by 1/8;
   recording is O(1) and memory is one small int array regardless of the
   number of samples — a million-request run cannot blow up the way a
   latency list would. *)

let hist_size = 512

type hist = {
  mutable h_count : int;
  mutable h_sum : int64;
  mutable h_max : int64;
  buckets : int array;
}

let hist_create () =
  { h_count = 0; h_sum = 0L; h_max = 0L; buckets = Array.make hist_size 0 }

(* OCaml has no portable clz on int; derive the msb position by halving
   shifts — six branches, no loop. *)
let msb_pos v =
  let v = ref v and p = ref 0 in
  if !v >= 1 lsl 32 then begin
    v := !v lsr 32;
    p := !p + 32
  end;
  if !v >= 1 lsl 16 then begin
    v := !v lsr 16;
    p := !p + 16
  end;
  if !v >= 1 lsl 8 then begin
    v := !v lsr 8;
    p := !p + 8
  end;
  if !v >= 1 lsl 4 then begin
    v := !v lsr 4;
    p := !p + 4
  end;
  if !v >= 1 lsl 2 then begin
    v := !v lsr 2;
    p := !p + 2
  end;
  if !v >= 2 then p := !p + 1;
  !p

let bucket_index v =
  if v < 8 then if v < 0 then 0 else v
  else
    let k = msb_pos v in
    let idx = ((k - 2) * 8) + ((v lsr (k - 3)) land 7) in
    if idx >= hist_size then hist_size - 1 else idx

(* lower bound of a bucket — the deterministic representative value *)
let bucket_value idx =
  if idx < 8 then idx else (8 + (idx land 7)) lsl ((idx lsr 3) - 1)

let hist_add h (lat : int64) =
  h.h_count <- h.h_count + 1;
  h.h_sum <- Int64.add h.h_sum lat;
  if lat > h.h_max then h.h_max <- lat;
  let v = Int64.to_int lat in
  let idx = bucket_index v in
  h.buckets.(idx) <- h.buckets.(idx) + 1

let hist_max h = h.h_max

let hist_mean h =
  if h.h_count = 0 then 0L
  else Int64.div h.h_sum (Int64.of_int h.h_count)

let hist_quantile h q =
  if h.h_count = 0 then 0L
  else begin
    let target =
      let t = int_of_float (ceil (q *. float_of_int h.h_count)) in
      if t < 1 then 1 else if t > h.h_count then h.h_count else t
    in
    let cum = ref 0 and idx = ref 0 and found = ref (hist_size - 1) in
    (try
       while !idx < hist_size do
         cum := !cum + h.buckets.(!idx);
         if !cum >= target then begin
           found := !idx;
           raise Exit
         end;
         incr idx
       done
     with Exit -> ());
    Int64.of_int (bucket_value !found)
  end

(* --- generators --- *)

type gen = {
  g_sched : Sched.t;
  g_label : string;
  g_target : int; (* arrivals to account for (completed + shed) *)
  g_hist : hist;
  g_started_at : int64;
  mutable g_next : int; (* next request index to issue (closed loop) *)
  mutable g_completed : int;
  mutable g_ok : int;
  mutable g_err : int;
  mutable g_timeout : int;
  mutable g_shed : int;
  mutable g_inflight : int;
  mutable g_done_at : int64;
}

let make_gen ~sched ~label ~target =
  {
    g_sched = sched;
    g_label = label;
    g_target = target;
    g_hist = hist_create ();
    g_started_at = Sched.now sched;
    g_next = 0;
    g_completed = 0;
    g_ok = 0;
    g_err = 0;
    g_timeout = 0;
    g_shed = 0;
    g_inflight = 0;
    g_done_at = 0L;
  }

let record g ~t0 (r : reply) =
  let now = Sched.now g.g_sched in
  hist_add g.g_hist (Int64.sub now t0);
  (match r with
  | `Ok _ -> g.g_ok <- g.g_ok + 1
  | `Err _ -> g.g_err <- g.g_err + 1
  | `Timeout -> g.g_timeout <- g.g_timeout + 1);
  g.g_completed <- g.g_completed + 1;
  if g.g_completed + g.g_shed >= g.g_target then g.g_done_at <- now

let accounted g = g.g_completed + g.g_shed >= g.g_target

(* One closed-loop client fiber: take the next request index from the
   shared counter, issue it, wait for the reply, think, repeat until the
   budget is drained. *)
let closed_client g ~think op () =
  let sched = g.g_sched in
  let continue = ref true in
  while !continue do
    let idx = g.g_next in
    if idx >= g.g_target then continue := false
    else begin
      g.g_next <- idx + 1;
      let t0 = Sched.now sched in
      let r = op idx in
      record g ~t0 r;
      if think > 0L then Sched.sleep think
    end
  done

(* Closed loop: [clients] persistent client fibers share one request
   counter. Daemons — they end with the world. *)
let spawn_closed ?(label = "closed") ~sched ~clients ~think ~requests ~op () =
  let g = make_gen ~sched ~label ~target:requests in
  for c = 0 to clients - 1 do
    ignore
      (Sched.spawn
         ~name:("load/" ^ label ^ "/" ^ string_of_int c)
         ~daemon:true sched
         (closed_client g ~think op))
  done;
  g

(* Open loop: arrivals at a fixed rate, independent of completions — the
   generator never slows down for the system (the defining property of
   open-loop load, and what makes queueing delay visible in latency).
   In-flight is bounded; an arrival past the bound is shed and counted,
   exactly like a full accept queue. *)
let spawn_open ?(label = "open") ~sched ~rate_rps ~max_inflight ~requests ~op
    () =
  if rate_rps <= 0 then invalid_arg "Loadgen.spawn_open: rate_rps must be > 0";
  let interval = Int64.div 1_000_000_000L (Int64.of_int rate_rps) in
  let interval = if interval < 1L then 1L else interval in
  let g = make_gen ~sched ~label ~target:requests in
  (* One shared fiber name for every request task: task ids stay unique,
     and three string allocations per request disappear from the open-loop
     hot path. *)
  let rname = "load/" ^ label ^ "/r" in
  ignore
    (Sched.spawn
       ~name:("load/" ^ label ^ "/arrivals")
       ~daemon:true sched
       (fun () ->
         for idx = 0 to requests - 1 do
           if g.g_inflight >= max_inflight then begin
             g.g_shed <- g.g_shed + 1;
             if accounted g then g.g_done_at <- Sched.now sched
           end
           else begin
             g.g_inflight <- g.g_inflight + 1;
             ignore
               (Sched.spawn ~name:rname ~daemon:true sched
                  (fun () ->
                    let t0 = Sched.now sched in
                    let r = op idx in
                    g.g_inflight <- g.g_inflight - 1;
                    record g ~t0 r))
           end;
           Sched.sleep interval
         done));
  g

(* --- results --- *)

type result = {
  lr_label : string;
  lr_requests : int; (* completed *)
  lr_ok : int;
  lr_err : int;
  lr_timeout : int;
  lr_shed : int;
  lr_sim_ns : int64; (* first issue -> last completion, virtual *)
  lr_wall_s : float;
  lr_p50 : int64;
  lr_p90 : int64;
  lr_p99 : int64;
  lr_mean : int64;
  lr_max : int64;
}

let throughput_rps r =
  float_of_int r.lr_requests /. Float.max 1e-9 (Int64.to_float r.lr_sim_ns /. 1e9)

let success_ratio r =
  float_of_int r.lr_ok /. float_of_int (max 1 r.lr_requests)

(* Drive the simulation until the generator has accounted for every
   arrival. [Sched.run ~until] returns [Quiescent] only once the timer heap
   empties, which daemon-held timers prevent — so the clock is advanced in
   bounded steps, checking completion between steps. [step] bounds detection
   slack, not precision: all measurements are event-timestamped. *)
let step = Wd_sim.Time.ms 200

let drive g =
  let wall0 = Unix.gettimeofday () in
  let sched = g.g_sched in
  let guard = ref 0 in
  while not (accounted g) do
    let prev_completed = g.g_completed + g.g_shed in
    (match Sched.run ~until:(Int64.add (Sched.now sched) step) sched with
    | Sched.Time_limit | Sched.Quiescent -> ()
    | Sched.Deadlock _ ->
        (* every non-daemon wedged: nothing will ever complete the budget *)
        g.g_done_at <- Sched.now sched;
        g.g_shed <- g.g_shed + (g.g_target - g.g_completed - g.g_shed));
    (* A wedged target (fault injection) can stall completions forever while
       timers keep firing; bail out after a long stretch of zero progress so
       detection-latency-under-load runs terminate. *)
    if g.g_completed + g.g_shed = prev_completed then begin
      incr guard;
      if !guard > 600 then begin
        g.g_shed <- g.g_shed + (g.g_target - g.g_completed - g.g_shed);
        g.g_done_at <- Sched.now sched
      end
    end
    else guard := 0
  done;
  let wall_s = Unix.gettimeofday () -. wall0 in
  let done_at = if g.g_done_at = 0L then Sched.now sched else g.g_done_at in
  {
    lr_label = g.g_label;
    lr_requests = g.g_completed;
    lr_ok = g.g_ok;
    lr_err = g.g_err;
    lr_timeout = g.g_timeout;
    lr_shed = g.g_shed;
    lr_sim_ns = Int64.sub done_at g.g_started_at;
    lr_wall_s = wall_s;
    lr_p50 = hist_quantile g.g_hist 0.50;
    lr_p90 = hist_quantile g.g_hist 0.90;
    lr_p99 = hist_quantile g.g_hist 0.99;
    lr_mean = hist_mean g.g_hist;
    lr_max = hist_max g.g_hist;
  }

let completed g = g.g_completed
let inflight g = g.g_inflight

(* --- fleet load ---

   Closed-loop clients against every node of a booted cluster world,
   driving each node's bounded end-to-end client operation (the same
   surface membership probing uses). One generator accounts for the whole
   fleet; per-node imbalance shows up in the latency tail. *)

let spawn_fleet ~world ~clients_per_node ~think ~requests () =
  let sched = Wd_cluster.Sim.world_sched world in
  let nodes = Array.of_list (Wd_cluster.Sim.world_nodes world) in
  let nnodes = Array.length nodes in
  if nnodes = 0 then invalid_arg "Loadgen.spawn_fleet: empty world";
  let g = make_gen ~sched ~label:"fleet" ~target:requests in
  for c = 0 to (clients_per_node * nnodes) - 1 do
    let node = nodes.(c mod nnodes) in
    ignore
      (Sched.spawn
         ~name:("load/fleet/" ^ Wd_cluster.Node.id node ^ "/"
                ^ string_of_int (c / nnodes))
         ~daemon:true sched
         (closed_client g ~think (fun _ ->
              if Wd_cluster.Node.local_probe node then `Ok Wd_ir.Ast.VUnit
              else `Err "probe failed")))
  done;
  g
