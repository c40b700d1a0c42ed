(* Timer queue keyed by (time, sequence). The sequence number breaks ties
   so that events scheduled for the same instant fire in insertion order,
   which is what makes whole-simulation runs deterministic.

   Two kinds of store share one sequence counter:

   - A binary min-heap, structure of arrays: keys live unboxed in an int64
     Bigarray (exact over the whole int64 range, [Time.never] included),
     tie-break sequence numbers in an int array, payloads in their own
     array. Sifting moves a hole instead of swapping.
   - Deadline lanes: one FIFO ring per fixed delay. A deadline [now + d]
     pushed at a non-decreasing [now] arrives in (time, seq) order, so
     appending it to the ring for [d] keeps that ring sorted at O(1) cost.
     A push earlier than its lane's tail goes to the heap instead.

   Every store is sorted by (time, seq), so popping the least head across
   the heap and the lanes yields exactly the order one heap would. There
   are few lanes (a handful of distinct deadline delays per world), so the
   least head is found by a linear scan, cached until the next push or
   pop. [push], [push_lane] and [pop_min] allocate nothing once the
   arrays have grown. *)

open Bigarray

type keys = (int64, int64_elt, c_layout) Array1.t

(* A ring of capacity [Array.length seqs] (a power of two); entry [i] of
   the FIFO sits at slot [(head + i) land (capacity - 1)]. *)
type 'a lane = {
  delay : int64;
  mutable l_keys : keys;
  mutable l_seqs : int array;
  mutable l_payloads : 'a array;
  mutable head : int;
  mutable len : int;
}

type 'a t = {
  mutable keys : keys;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable hsize : int; (* entries in the binary heap *)
  mutable lanes : 'a lane array;
  mutable size : int; (* entries in the heap and every lane *)
  mutable next_seq : int;
  mutable src : int; (* where the least entry sits, or [unknown] *)
  dummy : 'a;
}

let initial_capacity = 64
let initial_lane_capacity = 16

(* At most this many lanes, so finding the least head stays a short scan;
   the deadlines of any further delay go to the heap. *)
let max_lanes = 8

(* Values of [src]: a lane index, or one of these. *)
let unknown = -2
let in_heap = -1

let create ~dummy_payload =
  {
    keys = Array1.create Int64 C_layout initial_capacity;
    seqs = Array.make initial_capacity 0;
    payloads = Array.make initial_capacity dummy_payload;
    hsize = 0;
    lanes = [||];
    size = 0;
    next_seq = 0;
    src = unknown;
    dummy = dummy_payload;
  }

let size h = h.size
let is_empty h = h.size = 0

let grow h =
  let cap = 2 * Array.length h.seqs in
  let keys = Array1.create Int64 C_layout cap in
  Array1.blit h.keys (Array1.sub keys 0 (Array1.dim h.keys));
  let seqs = Array.make cap 0 in
  Array.blit h.seqs 0 seqs 0 h.hsize;
  let payloads = Array.make cap h.dummy in
  Array.blit h.payloads 0 payloads 0 h.hsize;
  h.keys <- keys;
  h.seqs <- seqs;
  h.payloads <- payloads

let push h ~time payload =
  if h.hsize = Array.length h.seqs then grow h;
  let keys = h.keys and seqs = h.seqs and payloads = h.payloads in
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  h.size <- h.size + 1;
  h.src <- unknown;
  (* Sift the hole up from the new last slot. [seq] exceeds every stored
     sequence number, so an equal key never moves the new entry above its
     parent: comparing keys alone keeps the (time, seq) order. *)
  let i = ref h.hsize in
  h.hsize <- h.hsize + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pk = Array1.unsafe_get keys parent in
    if time < pk then begin
      Array1.unsafe_set keys !i pk;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set payloads !i (Array.unsafe_get payloads parent);
      i := parent
    end
    else moving := false
  done;
  Array1.unsafe_set keys !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set payloads !i payload

let new_lane h delay =
  {
    delay;
    l_keys = Array1.create Int64 C_layout initial_lane_capacity;
    l_seqs = Array.make initial_lane_capacity 0;
    l_payloads = Array.make initial_lane_capacity h.dummy;
    head = 0;
    len = 0;
  }

(* The lane serving [delay], made on first use; [in_heap] once
   [max_lanes] other delays hold every lane. *)
let lane_index h delay =
  let lanes = h.lanes in
  let n = Array.length lanes in
  let i = ref 0 in
  while !i < n && not (Int64.equal (Array.unsafe_get lanes !i).delay delay) do
    incr i
  done;
  if !i < n then !i
  else if n < max_lanes then begin
    h.lanes <- Array.append lanes [| new_lane h delay |];
    n
  end
  else in_heap

let grow_lane h l =
  let cap = Array.length l.l_seqs in
  let cap' = 2 * cap in
  let keys = Array1.create Int64 C_layout cap'
  and seqs = Array.make cap' 0
  and payloads = Array.make cap' h.dummy in
  for i = 0 to l.len - 1 do
    let j = (l.head + i) land (cap - 1) in
    Array1.unsafe_set keys i (Array1.unsafe_get l.l_keys j);
    Array.unsafe_set seqs i (Array.unsafe_get l.l_seqs j);
    Array.unsafe_set payloads i (Array.unsafe_get l.l_payloads j)
  done;
  l.l_keys <- keys;
  l.l_seqs <- seqs;
  l.l_payloads <- payloads;
  l.head <- 0

let push_lane h ~lane ~time payload =
  let li = lane_index h lane in
  if li = in_heap then push h ~time payload
  else
    let l = Array.unsafe_get h.lanes li in
    let tail = (l.head + l.len - 1) land (Array.length l.l_seqs - 1) in
    if l.len > 0 && time < Array1.unsafe_get l.l_keys tail then
      push h ~time payload
    else begin
      if l.len = Array.length l.l_seqs then grow_lane h l;
      let slot = (l.head + l.len) land (Array.length l.l_seqs - 1) in
      Array1.unsafe_set l.l_keys slot time;
      Array.unsafe_set l.l_seqs slot h.next_seq;
      Array.unsafe_set l.l_payloads slot payload;
      h.next_seq <- h.next_seq + 1;
      l.len <- l.len + 1;
      h.size <- h.size + 1;
      h.src <- unknown
    end

(* Key and sequence number of the head of source [src]. *)
let src_key h src =
  if src = in_heap then Array1.unsafe_get h.keys 0
  else
    let l = Array.unsafe_get h.lanes src in
    Array1.unsafe_get l.l_keys l.head
[@@inline]

let src_seq h src =
  if src = in_heap then Array.unsafe_get h.seqs 0
  else
    let l = Array.unsafe_get h.lanes src in
    Array.unsafe_get l.l_seqs l.head
[@@inline]

(* The source holding the least (time, seq); the queue is not empty. *)
let find_min h =
  let best = ref (if h.hsize > 0 then in_heap else unknown) in
  let lanes = h.lanes in
  for i = 0 to Array.length lanes - 1 do
    let l = Array.unsafe_get lanes i in
    if l.len > 0 then begin
      let k = Array1.unsafe_get l.l_keys l.head in
      if !best = unknown then best := i
      else
        let bk = src_key h !best in
        if k < bk || (k = bk && Array.unsafe_get l.l_seqs l.head < src_seq h !best)
        then best := i
    end
  done;
  h.src <- !best;
  !best

let min_src h = if h.src = unknown then find_min h else h.src [@@inline]

let min_time h =
  if h.size = 0 then invalid_arg "Heap.min_time: empty heap";
  src_key h (min_src h)
[@@inline]

let heap_pop h =
  let keys = h.keys and seqs = h.seqs and payloads = h.payloads in
  let top = Array.unsafe_get payloads 0 in
  let n = h.hsize - 1 in
  h.hsize <- n;
  if n > 0 then begin
    (* Sift the last entry down from the root, moving the hole. *)
    let key = Array1.unsafe_get keys n
    and seq = Array.unsafe_get seqs n
    and payload = Array.unsafe_get payloads n in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        let r = l + 1 in
        let lk = Array1.unsafe_get keys l in
        let c =
          if r < n then
            let rk = Array1.unsafe_get keys r in
            if
              rk < lk
              || (rk = lk && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
            then r
            else l
          else l
        in
        let ck = Array1.unsafe_get keys c in
        if ck < key || (ck = key && Array.unsafe_get seqs c < seq) then begin
          Array1.unsafe_set keys !i ck;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set payloads !i (Array.unsafe_get payloads c);
          i := c
        end
        else moving := false
      end
    done;
    Array1.unsafe_set keys !i key;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set payloads !i payload
  end;
  Array.unsafe_set payloads n h.dummy;
  top

let lane_pop h l =
  let head = l.head in
  let top = Array.unsafe_get l.l_payloads head in
  Array.unsafe_set l.l_payloads head h.dummy;
  l.head <- (head + 1) land (Array.length l.l_seqs - 1);
  l.len <- l.len - 1;
  top

let pop_min h =
  if h.size = 0 then invalid_arg "Heap.pop_min: empty heap";
  let src = min_src h in
  h.src <- unknown;
  h.size <- h.size - 1;
  if src = in_heap then heap_pop h else lane_pop h (Array.unsafe_get h.lanes src)
