(* The rng split order (table, disks in order, net) fixes every boot's
   randomness: changing it moves every pinned run. *)

type t = {
  res : Wd_ir.Runtime.resources;
  net : Wd_ir.Ast.value Wd_env.Net.t;
  mem : Wd_env.Memory.t;
}

let create ~sched ~reg ~disks ~net ~mem ~mem_capacity ~endpoints =
  let rng = Wd_sim.Rng.split (Wd_sim.Sched.rng sched) in
  let res = Wd_ir.Runtime.create ~reg ~rng in
  List.iter
    (fun name ->
      Wd_ir.Runtime.add_disk res
        (Wd_env.Disk.create ~reg ~rng:(Wd_sim.Rng.split rng) name))
    disks;
  let net = Wd_env.Net.create ~reg ~rng:(Wd_sim.Rng.split rng) net in
  let mem = Wd_env.Memory.create ~reg ~capacity:mem_capacity mem in
  Wd_ir.Runtime.add_net res net;
  Wd_ir.Runtime.add_mem res mem;
  List.iter (Wd_env.Net.register net) endpoints;
  { res; net; mem }
