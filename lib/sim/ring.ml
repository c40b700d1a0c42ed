(* A growable FIFO ring: [push] and [pop] allocate nothing once the buffer
   has grown, where a stdlib [Queue] allocates a cell per push. Entry [i]
   of the FIFO sits at slot [(head + i) land (capacity - 1)]; the capacity
   is zero or a power of two. A popped slot is reset to [dummy], so the
   ring keeps nothing alive that it no longer holds. *)

type 'a t = {
  mutable buf : 'a array;
  mutable head : int;
  mutable len : int;
  dummy : 'a;
}

(* No buffer until the first push: a ring that is never pushed to (most
   conds) costs only its record. *)
let create ~dummy = { buf = [||]; head = 0; len = 0; dummy }

let length r = r.len
let is_empty r = r.len = 0

let grow r =
  let cap = Array.length r.buf in
  let buf = Array.make (if cap = 0 then 8 else 2 * cap) r.dummy in
  for i = 0 to r.len - 1 do
    Array.unsafe_set buf i (Array.unsafe_get r.buf ((r.head + i) land (cap - 1)))
  done;
  r.buf <- buf;
  r.head <- 0

let push r v =
  if r.len = Array.length r.buf then grow r;
  let buf = r.buf in
  Array.unsafe_set buf ((r.head + r.len) land (Array.length buf - 1)) v;
  r.len <- r.len + 1

let pop r =
  if r.len = 0 then invalid_arg "Ring.pop: empty";
  let buf = r.buf in
  let v = Array.unsafe_get buf r.head in
  Array.unsafe_set buf r.head r.dummy;
  r.head <- (r.head + 1) land (Array.length buf - 1);
  r.len <- r.len - 1;
  v
