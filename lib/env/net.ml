(* Simulated message network. Senders are asynchronous: a [send] pays a
   small CPU cost, then the message is scheduled for delivery after a
   modelled latency. Faults can delay delivery, drop messages, raise at the
   sender, mark payloads corrupted, or hang the sender (the blocked-socket /
   backpressure behaviour behind ZOOKEEPER-2201).

   Links are asymmetric when profiled: a per-(src,dst) [link_profile]
   overrides the fabric's base latency and optionally bounds bandwidth.
   Bandwidth is modelled store-and-forward — each profiled link keeps a
   [busy_until] horizon, a message of [size] bytes occupies the link for
   size/rate seconds starting no earlier than that horizon, and delivery
   happens at transmit-done + propagation latency. Everything is driven by
   the virtual clock and the fabric's own RNG, so a schedule is a pure
   function of the seed.

   Sites have the shape "net:<fabric>:send:<src>:<dst>", so a pattern like
   "net:main:send:leader:*" cuts every message the leader sends. *)

exception Net_error of string

type 'a envelope = {
  src : string;
  dst : string;
  payload : 'a;
  sent_at : int64;
  corrupted : bool;
}

type link_profile = {
  lp_latency : int64 option; (* propagation latency override for this link *)
  lp_bytes_per_sec : int option; (* None = unbounded bandwidth *)
}

type 'a t = {
  name : string;
  reg : Faultreg.t;
  rng : Wd_sim.Rng.t;
  base_latency : int64;
  endpoints : (string, 'a envelope Wd_sim.Channel.t) Hashtbl.t;
  (* per-(src,dst) link FIFO: a message never overtakes an earlier one on
     the same link (TCP-like), whatever the jitter says *)
  last_delivery : (string * string, int64) Hashtbl.t;
  links : (string * string, link_profile) Hashtbl.t;
  (* serialisation horizon of each bandwidth-bounded link *)
  busy_until : (string * string, int64) Hashtbl.t;
  (* (src, site dst) -> interned fault-site id; populated only while the
     registry is armed, so clean sends build no site string. *)
  site_ids : (string * string, Wd_sim.Site.id) Hashtbl.t;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
}

let create ?(base_latency = Wd_sim.Time.us 500) ~reg ~rng name =
  {
    name;
    reg;
    rng;
    base_latency;
    endpoints = Hashtbl.create 16;
    last_delivery = Hashtbl.create 32;
    links = Hashtbl.create 16;
    busy_until = Hashtbl.create 16;
    site_ids = Hashtbl.create 32;
    sent = 0;
    delivered = 0;
    dropped = 0;
  }

let set_link_profile n ~src ~dst profile =
  Hashtbl.replace n.links (src, dst) profile

let link_profile n ~src ~dst = Hashtbl.find_opt n.links (src, dst)

let name n = n.name
let stats n = (n.sent, n.delivered, n.dropped)

let register n endpoint =
  if Hashtbl.mem n.endpoints endpoint then
    invalid_arg (Fmt.str "Net.register: %s already registered" endpoint);
  Hashtbl.replace n.endpoints endpoint
    (Wd_sim.Channel.create (Fmt.str "net:%s:%s" n.name endpoint))

let exists n endpoint = Hashtbl.mem n.endpoints endpoint
let ensure_registered n endpoint = if not (exists n endpoint) then register n endpoint

let inbox n endpoint =
  match Hashtbl.find_opt n.endpoints endpoint with
  | Some ch -> ch
  | None -> raise (Net_error (Fmt.str "no such endpoint %s" endpoint))

let inbox_length n endpoint = Wd_sim.Channel.length (inbox n endpoint)

let site_id n ~src ~sdst =
  match Hashtbl.find_opt n.site_ids (src, sdst) with
  | Some id -> id
  | None ->
      let id =
        Wd_sim.Site.intern ("net:" ^ n.name ^ ":send:" ^ src ^ ":" ^ sdst)
      in
      if Hashtbl.length n.site_ids < 8192 then
        Hashtbl.add n.site_ids (src, sdst) id;
      id

(* With no behaviour matched (always, while the registry is unarmed) the
   folds below have nothing to fold: the message is delivered uncorrupted
   with no extra delay and a latency factor of 1.0, so they are skipped
   and the op draws and schedules exactly what they would give. *)
let send ?site_dst ?(size = 0) n ~src ~dst payload =
  let s = Wd_sim.Sched.get () in
  let now = Wd_sim.Sched.now s in
  let behaviours =
    if Faultreg.armed n.reg then
      let sdst = Option.value site_dst ~default:dst in
      Faultreg.consult n.reg ~site:(Wd_sim.Site.str (site_id n ~src ~sdst)) ~now
    else []
  in
  let dropped, corrupted, extra, factor =
    match behaviours with
    | [] -> (false, false, 0L, 1.0)
    | _ ->
        (* Sender-side consequences: hang and error block/fail the
           caller. *)
        List.iter
          (fun (id, b) ->
            match b with
            | Faultreg.Hang ->
                let stop = Faultreg.stop_of n.reg id in
                if stop = Wd_sim.Time.never then
                  Wd_sim.Sched.suspend
                    ~reason:(Fmt.str "net fault %s hang" id)
                    ~register:(fun _waker -> ())
                else
                  Wd_sim.Sched.suspend
                    ~reason:(Fmt.str "net fault %s hang" id)
                    ~register:(fun waker -> Wd_sim.Sched.at s stop waker)
            | Faultreg.Error m -> raise (Net_error m)
            | Faultreg.Delay _ | Faultreg.Slow_factor _ | Faultreg.Corrupt
            | Faultreg.Drop ->
                ())
          behaviours;
        ( List.exists (fun (_, b) -> b = Faultreg.Drop) behaviours,
          List.exists (fun (_, b) -> b = Faultreg.Corrupt) behaviours,
          List.fold_left
            (fun acc (_, b) ->
              match b with Faultreg.Delay d -> Int64.add acc d | _ -> acc)
            0L behaviours,
          Faultreg.slow_factor behaviours )
  in
  n.sent <- n.sent + 1;
  if dropped then n.dropped <- n.dropped + 1
  else begin
    let ch = inbox n dst in
    (* one key for every per-link table *)
    let link = (src, dst) in
    let profile = Hashtbl.find_opt n.links link in
    let base =
      match profile with
      | Some { lp_latency = Some l; _ } -> l
      | Some { lp_latency = None; _ } | None -> n.base_latency
    in
    let jitter =
      Wd_sim.Rng.exponential n.rng ~mean:(Int64.to_float base /. 4.0)
    in
    let latency =
      Int64.add
        (Int64.of_float ((Int64.to_float base +. jitter) *. factor))
        extra
    in
    let now = Wd_sim.Sched.now s in
    (* bandwidth: serialise onto the link after any message still
       transmitting, then propagate — store-and-forward, deterministic *)
    let tx_done =
      match profile with
      | Some { lp_bytes_per_sec = Some rate; _ } when size > 0 && rate > 0 ->
          let busy =
            Option.value ~default:0L (Hashtbl.find_opt n.busy_until link)
          in
          let start = if busy > now then busy else now in
          let tx =
            Int64.of_float
              (Float.ceil (float_of_int size *. 1e9 /. float_of_int rate))
          in
          let done_ = Int64.add start tx in
          Hashtbl.replace n.busy_until link done_;
          done_
      | Some _ | None -> now
    in
    let at =
      let natural = Int64.add tx_done latency in
      match Hashtbl.find n.last_delivery link with
      | prev when prev >= natural -> Int64.add prev 1L
      | _ | (exception Not_found) -> natural
    in
    Hashtbl.replace n.last_delivery link at;
    let env = { src; dst; payload; sent_at = now; corrupted } in
    Wd_sim.Sched.at s at (fun () ->
        if Wd_sim.Channel.try_send ch env then
          n.delivered <- n.delivered + 1
        else n.dropped <- n.dropped + 1)
  end

let recv_timeout n endpoint ~timeout =
  Wd_sim.Channel.recv_timeout (inbox n endpoint) ~timeout

let try_recv n endpoint = Wd_sim.Channel.try_recv (inbox n endpoint)
