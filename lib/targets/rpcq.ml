(* Shared client-facing request/reply plumbing for IR targets.

   Clients enqueue request maps carrying a fresh reply id; the target's IR
   pushes replies (tagged with that id) onto a well-known replies queue; a
   dispatcher task routes each reply to the per-request queue the client
   blocks on, and discards a reply whose request already gave up on it.
   This models a request/response API surface — exactly the
   interface probe checkers exercise. *)

open Wd_ir

type t = {
  sched : Wd_sim.Sched.t;
  res : Runtime.resources;
  request_queue : string;
  replies_queue : string;
  mutable seq : int;
}

let create ~sched ~res ~request_queue ~replies_queue =
  { sched; res; request_queue; replies_queue; seq = 0 }

let spawn_dispatcher t =
  Wd_sim.Sched.spawn
    ~name:(t.replies_queue ^ "/dispatch")
    ~daemon:true t.sched
    (fun () ->
      let replies = Runtime.queue t.res t.replies_queue in
      while true do
        match Wd_sim.Channel.recv replies with
        | Ast.VMap kvs -> (
            match (List.assoc_opt "id" kvs, List.assoc_opt "data" kvs) with
            | Some (Ast.VStr id), Some data -> (
                match Runtime.find_queue t.res id with
                | Some q -> ignore (Wd_sim.Channel.try_send q data)
                | None -> (* its request timed out and dropped the queue *) ())
            | _, _ -> ())
        | _ -> ()
      done)

(* The IR side of the protocol: the reply map a target pushes onto its
   replies queue, tagged with the request's reply id. *)
let reply data =
  let module B = Builder in
  B.prim "map_put"
    [
      B.prim "map_put" [ B.prim "map_empty" []; B.s "id"; B.v "reply" ];
      B.s "data";
      data;
    ]

(* Issue one request and wait for its reply. Must be called from a task. *)
let request ?(timeout = Wd_sim.Time.sec 2) t fields =
  t.seq <- t.seq + 1;
  let reply_name = t.replies_queue ^ "/r" ^ string_of_int t.seq in
  let reply_q = Runtime.queue t.res reply_name in
  let req = Ast.VMap (("reply", Ast.VStr reply_name) :: fields) in
  let inq = Runtime.queue t.res t.request_queue in
  if not (Wd_sim.Channel.try_send inq req) then begin
    Runtime.drop_queue t.res reply_name;
    `Err "request queue full"
  end
  else
    let r =
      match Wd_sim.Channel.recv_timeout reply_q ~timeout with
      | Some v -> `Ok v
      | None -> `Timeout
    in
    (* One queue per request: reclaim it or load runs grow the resource
       table (and its channels) without bound. A reply that arrives after
       a timeout finds no queue and the dispatcher drops it. *)
    Runtime.drop_queue t.res reply_name;
    r
