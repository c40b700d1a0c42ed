(* Shared client-facing request/reply plumbing for IR targets.

   Clients enqueue request maps carrying a fresh reply id; the target's IR
   pushes replies (tagged with that id) onto a well-known replies queue; a
   dispatcher task routes each reply to the mailbox the client blocks on,
   and discards a reply whose request already gave up on it. This models a
   request/response API surface — exactly the interface probe checkers
   exercise.

   A mailbox is a slot: the reply, a cond named after the reply id and a
   prebuilt predicate. Each handle recycles its slots through a free ring,
   so a request builds no channel; the cond is renamed per request, so a
   client blocked on it reads "cond chan <replies>/rN not_empty (timed)",
   as it did when every request had its own reply channel. *)

open Wd_ir
module Cond = Wd_sim.Cond
module Ring = Wd_sim.Ring

type slot = {
  mutable reply : Ast.value; (* [no_reply] until the dispatcher delivers *)
  cond : Cond.t;
  mutable ready : unit -> bool;
}

(* A private block: no reply the dispatcher delivers is physically it. *)
let no_reply = Ast.VStr "\x00rpcq:no reply\x00"

let unbuilt () = false

let new_slot name =
  let slot =
    {
      reply = no_reply;
      cond = Cond.create ~prefix:"chan " name ~suffix:" not_empty";
      ready = unbuilt;
    }
  in
  slot.ready <- (fun () -> slot.reply != no_reply);
  slot

let dummy_slot = new_slot ""

type t = {
  sched : Wd_sim.Sched.t;
  res : Runtime.resources;
  request_queue : string;
  replies_queue : string;
  reply_prefix : string; (* [replies_queue ^ "/r"] *)
  (* reply id -> the slot of the request waiting for it; shared by every
     handle on one replies queue, since one dispatcher serves them all *)
  in_flight : (string, slot) Hashtbl.t;
  free : slot Ring.t;
  mutable seq : int;
}

let create ~sched ~res ~request_queue ~replies_queue =
  {
    sched;
    res;
    request_queue;
    replies_queue;
    reply_prefix = replies_queue ^ "/r";
    in_flight = Hashtbl.create 16;
    free = Ring.create ~dummy:dummy_slot;
    seq = 0;
  }

let sibling t ~request_queue =
  { t with request_queue; free = Ring.create ~dummy:dummy_slot; seq = 0 }

(* [List.assoc] without the option: [no_reply] when [k] is absent. *)
let rec field k = function
  | [] -> no_reply
  | (k', v) :: rest -> if String.equal k k' then v else field k rest

let spawn_dispatcher t =
  Wd_sim.Sched.spawn
    ~name:(t.replies_queue ^ "/dispatch")
    ~daemon:true t.sched
    (fun () ->
      let replies = Runtime.queue t.res t.replies_queue in
      while true do
        match Wd_sim.Channel.recv replies with
        | Ast.VMap kvs -> (
            match field "id" kvs with
            | Ast.VStr id -> (
                let data = field "data" kvs in
                if data != no_reply then
                  match Hashtbl.find t.in_flight id with
                  | slot ->
                      (* a second reply to one id is dropped, as a reply
                         channel's second item was never read *)
                      if slot.reply == no_reply then slot.reply <- data;
                      Cond.signal slot.cond
                  | exception Not_found ->
                      (* its request timed out and gave the id up *) ())
            | _ -> ())
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

let take t id =
  if Hashtbl.mem t.in_flight id then
    invalid_arg ("Rpcq.request: reply id " ^ id ^ " is already in flight");
  let slot =
    if Ring.is_empty t.free then new_slot id
    else begin
      let slot = Ring.pop t.free in
      Cond.rename slot.cond id;
      slot
    end
  in
  Hashtbl.add t.in_flight id slot;
  slot

(* A slot goes back to the free ring only with no waker queued on its
   cond: a timed wait that expired leaves its stale waker there, and the
   next request's reply would pop that one instead of its own. *)
let give_back t id slot =
  Hashtbl.remove t.in_flight id;
  slot.reply <- no_reply;
  if Cond.waiter_count slot.cond = 0 then Ring.push t.free slot

(* Issue one request and wait for its reply. Must be called from a task. *)
let request ?(timeout = Wd_sim.Time.sec 2) t fields =
  t.seq <- t.seq + 1;
  let id = t.reply_prefix ^ string_of_int t.seq in
  let slot = take t id in
  let req = Ast.VMap (("reply", Ast.VStr id) :: fields) in
  let inq = Runtime.queue t.res t.request_queue in
  match
    if not (Wd_sim.Channel.try_send inq req) then `Err "request queue full"
    else if Cond.await_timeout slot.cond slot.ready ~timeout then `Ok slot.reply
    else `Timeout
  with
  | r ->
      give_back t id slot;
      r
  | exception e ->
      (* killed while waiting: the id is given up, but the slot, whose
         cond may still hold the dead task's waker, is never reused *)
      Hashtbl.remove t.in_flight id;
      raise e
