(* Binary min-heap keyed by (time, sequence). The sequence number breaks ties
   so that events scheduled for the same instant fire in insertion order,
   which is what makes whole-simulation runs deterministic.

   Structure of arrays: keys live unboxed in an int64 Bigarray (exact over
   the whole int64 range, [Time.never] included), tie-break sequence numbers
   in an int array, payloads in their own array. Sifting moves a hole
   instead of swapping, so [push] and [pop_min] allocate nothing once the
   arrays have grown. *)

open Bigarray

type keys = (int64, int64_elt, c_layout) Array1.t

type 'a t = {
  mutable keys : keys;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable size : int;
  mutable next_seq : int;
  dummy : 'a;
}

let initial_capacity = 64

let create ~dummy_payload =
  {
    keys = Array1.create Int64 C_layout initial_capacity;
    seqs = Array.make initial_capacity 0;
    payloads = Array.make initial_capacity dummy_payload;
    size = 0;
    next_seq = 0;
    dummy = dummy_payload;
  }

let size h = h.size
let is_empty h = h.size = 0

let grow h =
  let cap = 2 * Array.length h.seqs in
  let keys = Array1.create Int64 C_layout cap in
  Array1.blit h.keys (Array1.sub keys 0 (Array1.dim h.keys));
  let seqs = Array.make cap 0 in
  Array.blit h.seqs 0 seqs 0 h.size;
  let payloads = Array.make cap h.dummy in
  Array.blit h.payloads 0 payloads 0 h.size;
  h.keys <- keys;
  h.seqs <- seqs;
  h.payloads <- payloads

let push h ~time payload =
  if h.size = Array.length h.seqs then grow h;
  let keys = h.keys and seqs = h.seqs and payloads = h.payloads in
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  (* Sift the hole up from the new last slot. [seq] exceeds every stored
     sequence number, so an equal key never moves the new entry above its
     parent: comparing keys alone keeps the (time, seq) order. *)
  let i = ref h.size in
  h.size <- h.size + 1;
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

let min_time h =
  if h.size = 0 then invalid_arg "Heap.min_time: empty heap";
  Array1.unsafe_get h.keys 0
[@@inline]

let pop_min h =
  if h.size = 0 then invalid_arg "Heap.pop_min: empty heap";
  let keys = h.keys and seqs = h.seqs and payloads = h.payloads in
  let top = Array.unsafe_get payloads 0 in
  let n = h.size - 1 in
  h.size <- n;
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
