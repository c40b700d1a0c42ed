(* Resource table binding IR resource names to simulated environment
   objects. Disks, networks and memory pools are registered explicitly by
   the harness that boots a program; locks and queues are auto-created on
   first use (like Java object monitors); globals hold shared program
   state. *)

open Ast

type resources = {
  reg : Wd_env.Faultreg.t;
  rng : Wd_sim.Rng.t;
  disks : (string, Wd_env.Disk.t) Hashtbl.t;
  nets : (string, value Wd_env.Net.t) Hashtbl.t;
  mems : (string, Wd_env.Memory.t) Hashtbl.t;
  locks : (string, Wd_sim.Smutex.t) Hashtbl.t;
  queues : (string, value Wd_sim.Channel.t) Hashtbl.t;
  globals : (string, value) Hashtbl.t;
  mutable log_lines : (int64 * string * string) list; (* time, node, msg *)
}

let create ~reg ~rng =
  {
    reg;
    rng;
    disks = Hashtbl.create 8;
    nets = Hashtbl.create 4;
    mems = Hashtbl.create 4;
    locks = Hashtbl.create 16;
    queues = Hashtbl.create 16;
    globals = Hashtbl.create 32;
    log_lines = [];
  }

let add_disk r d = Hashtbl.replace r.disks (Wd_env.Disk.name d) d
let add_net r n = Hashtbl.replace r.nets (Wd_env.Net.name n) n
let add_mem r m = Hashtbl.replace r.mems (Wd_env.Memory.name m) m

(* Lookups match on [Not_found] rather than [find_opt]: a hit allocates
   no [Some]. *)
let disk r name =
  match Hashtbl.find r.disks name with
  | d -> d
  | exception Not_found -> raise (Ir_error (Fmt.str "no disk %s registered" name))

let net r name =
  match Hashtbl.find r.nets name with
  | n -> n
  | exception Not_found -> raise (Ir_error (Fmt.str "no net %s registered" name))

let mem r name =
  match Hashtbl.find r.mems name with
  | m -> m
  | exception Not_found ->
      raise (Ir_error (Fmt.str "no memory pool %s registered" name))

let lock r name =
  match Hashtbl.find r.locks name with
  | l -> l
  | exception Not_found ->
      let l = Wd_sim.Smutex.create name in
      Hashtbl.replace r.locks name l;
      l

let queue r name =
  match Hashtbl.find r.queues name with
  | q -> q
  | exception Not_found ->
      let q = Wd_sim.Channel.create name in
      Hashtbl.replace r.queues name q;
      q

let global r name =
  match Hashtbl.find r.globals name with v -> v | exception Not_found -> VUnit

let set_global r name v = Hashtbl.replace r.globals name v

let log r ~node msg =
  let now = try Wd_sim.Sched.now (Wd_sim.Sched.get ()) with _ -> 0L in
  r.log_lines <- (now, node, msg) :: r.log_lines

let log_lines r = List.rev r.log_lines
