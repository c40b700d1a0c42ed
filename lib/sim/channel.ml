(* Bounded FIFO channels connecting tasks. [send] blocks when full, [recv]
   when empty; [recv_timeout] is the shape most watchdog-relevant polling
   loops use. *)

type 'a t = {
  name : string;
  capacity : int;
  items : 'a Queue.t;
  not_empty : Cond.t;
  not_full : Cond.t;
  mutable closed : bool;
  mutable sent : int;
  mutable received : int;
}

exception Closed of string

let create ?(capacity = max_int) name =
  if capacity <= 0 then invalid_arg "Channel.create: capacity must be positive";
  {
    name;
    capacity;
    items = Queue.create ();
    not_empty = Cond.create ~prefix:"chan " name ~suffix:" not_empty";
    not_full = Cond.create ~prefix:"chan " name ~suffix:" not_full";
    closed = false;
    sent = 0;
    received = 0;
  }

let length c = Queue.length c.items
let stats c = (c.sent, c.received)

let close c =
  c.closed <- true;
  Cond.broadcast c.not_empty;
  Cond.broadcast c.not_full

let send c v =
  Cond.await c.not_full (fun () ->
      c.closed || Queue.length c.items < c.capacity);
  if c.closed then raise (Closed c.name);
  Queue.push v c.items;
  c.sent <- c.sent + 1;
  Cond.signal c.not_empty

let try_send c v =
  if c.closed then raise (Closed c.name)
  else if Queue.length c.items >= c.capacity then false
  else begin
    Queue.push v c.items;
    c.sent <- c.sent + 1;
    Cond.signal c.not_empty;
    true
  end

let recv c =
  Cond.await c.not_empty (fun () -> c.closed || not (Queue.is_empty c.items));
  if Queue.is_empty c.items then raise (Closed c.name)
  else begin
    let v = Queue.pop c.items in
    c.received <- c.received + 1;
    Cond.signal c.not_full;
    v
  end

let try_recv c =
  if Queue.is_empty c.items then None
  else begin
    let v = Queue.pop c.items in
    c.received <- c.received + 1;
    Cond.signal c.not_full;
    Some v
  end

let recv_timeout c ~timeout =
  let ok =
    Cond.await_timeout c.not_empty
      (fun () -> c.closed || not (Queue.is_empty c.items))
      ~timeout
  in
  if not ok then None
  else if Queue.is_empty c.items then raise (Closed c.name)
  else begin
    let v = Queue.pop c.items in
    c.received <- c.received + 1;
    Cond.signal c.not_full;
    Some v
  end
