(* Simulated disk: a flat path -> bytes store with a latency model and
   injectable partial faults (slow, hang, error, silent corruption). The
   latency model charges a fixed seek cost plus a per-byte cost, scaled by
   any active Slow_factor fault — that is how fail-slow devices and limplock
   are modelled. *)

exception Io_error of string

(* Files keep appended chunks unmaterialized so a hot append path is O(1)
   in the chunk, not O(file): `Bytes.cat` per append is quadratic over a
   log's lifetime and its large short-lived blocks dominate major-GC
   pacing under load (measured 83% of zkmini request wall time). Chunks
   are concatenated lazily on the first read. *)
type file = {
  mutable head : Bytes.t;
  mutable tail : Bytes.t list; (* newest first *)
}

let materialize f =
  (match f.tail with
  | [] -> ()
  | tail ->
      f.head <- Bytes.concat Bytes.empty (f.head :: List.rev tail);
      f.tail <- []);
  f.head

let file_of_bytes b = { head = b; tail = [] }

type t = {
  name : string;
  files : (string, file) Hashtbl.t;
  reg : Faultreg.t;
  rng : Wd_sim.Rng.t;
  (* op -> path -> interned fault-site id; only populated while faults are
     armed, so clean runs never pay for site strings at all. *)
  site_ids : (string, (string, Wd_sim.Site.id) Hashtbl.t) Hashtbl.t;
  mutable reads : int;
  mutable writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable synced : int;
}

(* the latency model: a fixed seek cost plus a per-byte cost *)
let seek_ns = Wd_sim.Time.us 100
let per_byte_ns = 2L

let create ~reg ~rng name =
  {
    name;
    files = Hashtbl.create 64;
    reg;
    rng;
    site_ids = Hashtbl.create 7;
    reads = 0;
    writes = 0;
    bytes_read = 0;
    bytes_written = 0;
    synced = 0;
  }

let name d = d.name

let stats d =
  (d.reads, d.writes, d.bytes_read, d.bytes_written, d.synced)

(* Plain concatenation: this runs on every disk op and [Fmt.str] is ~4x
   the cost of [^] chains. *)
let site d ~op ~path = "disk:" ^ d.name ^ ":" ^ op ^ ":" ^ path

(* Interned site for (op, path): the string is built once per distinct pair
   and subsequent consults reuse the canonical copy. Only reached when the
   registry is armed; a run cap keeps pathological path diversity from
   growing the global intern table unboundedly. *)
let site_id d ~op ~path =
  let per_op =
    match Hashtbl.find_opt d.site_ids op with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 32 in
        Hashtbl.add d.site_ids op h;
        h
  in
  match Hashtbl.find_opt per_op path with
  | Some id -> id
  | None ->
      let id = Wd_sim.Site.intern (site d ~op ~path) in
      if Hashtbl.length per_op < 4096 then Hashtbl.add per_op path id;
      id

(* Model the cost of touching [len] bytes, then apply injected behaviours.
   Returns [corrupt] so the caller can damage the payload silently. *)
let perform d ~op ~path ~len =
  let s = Wd_sim.Sched.get () in
  let now = Wd_sim.Sched.now s in
  let behaviours =
    if Faultreg.armed d.reg then
      Faultreg.consult d.reg ~site:(Wd_sim.Site.str (site_id d ~op ~path)) ~now
    else []
  in
  let factor = Faultreg.slow_factor behaviours in
  let modelled =
    Int64.add seek_ns (Int64.mul per_byte_ns (Int64.of_int len))
  in
  let jitter =
    Wd_sim.Rng.exponential d.rng ~mean:(Int64.to_float seek_ns /. 4.0)
  in
  let cost =
    Int64.of_float ((Int64.to_float modelled +. jitter) *. factor)
  in
  Wd_sim.Sched.sleep cost;
  match
    Faultreg.apply_common behaviours ~now ~stop_of:(Faultreg.stop_of d.reg)
  with
  | Result.Error msg ->
      raise (Io_error (Fmt.str "%s %s %s: %s" d.name op path msg))
  | Result.Ok (corrupt, _drop) -> corrupt

let corrupt_bytes rng b =
  if Bytes.length b > 0 then begin
    let i = Wd_sim.Rng.int rng (Bytes.length b) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5f))
  end

let write ?as_path d ~path data =
  let site_path = Option.value as_path ~default:path in
  let corrupt = perform d ~op:"write" ~path:site_path ~len:(Bytes.length data) in
  let stored = Bytes.copy data in
  if corrupt then corrupt_bytes d.rng stored;
  Hashtbl.replace d.files path (file_of_bytes stored);
  d.writes <- d.writes + 1;
  d.bytes_written <- d.bytes_written + Bytes.length data

let append ?as_path d ~path data =
  let site_path = Option.value as_path ~default:path in
  let corrupt = perform d ~op:"append" ~path:site_path ~len:(Bytes.length data) in
  let extra = Bytes.copy data in
  if corrupt then corrupt_bytes d.rng extra;
  (match Hashtbl.find_opt d.files path with
  | Some f -> f.tail <- extra :: f.tail
  | None -> Hashtbl.replace d.files path (file_of_bytes extra));
  d.writes <- d.writes + 1;
  d.bytes_written <- d.bytes_written + Bytes.length data

let file_length f =
  Bytes.length f.head
  + List.fold_left (fun acc c -> acc + Bytes.length c) 0 f.tail

let read ?as_path d ~path =
  let site_path = Option.value as_path ~default:path in
  let len =
    match Hashtbl.find_opt d.files path with
    | Some f -> file_length f
    | None -> 0
  in
  let corrupt = perform d ~op:"read" ~path:site_path ~len in
  match Hashtbl.find_opt d.files path with
  | None -> raise (Io_error (Fmt.str "%s read %s: no such file" d.name path))
  | Some f ->
      let b = materialize f in
      d.reads <- d.reads + 1;
      d.bytes_read <- d.bytes_read + Bytes.length b;
      let out = Bytes.copy b in
      if corrupt then corrupt_bytes d.rng out;
      out

let exists d ~path =
  ignore (perform d ~op:"stat" ~path ~len:0);
  Hashtbl.mem d.files path

let delete ?as_path d ~path =
  let site_path = Option.value as_path ~default:path in
  ignore (perform d ~op:"delete" ~path:site_path ~len:0);
  Hashtbl.remove d.files path

let sync d =
  ignore (perform d ~op:"sync" ~path:"-" ~len:0);
  d.synced <- d.synced + 1

let list d ~prefix =
  ignore (perform d ~op:"list" ~path:prefix ~len:0);
  Hashtbl.fold
    (fun path _ acc -> if String.starts_with ~prefix path then path :: acc else acc)
    d.files []
  |> List.sort String.compare

(* Direct (cost-free, fault-free) access for tests and ground-truth
   comparisons. *)
let peek d ~path = Option.map materialize (Hashtbl.find_opt d.files path)

let paths d =
  Hashtbl.fold (fun p _ acc -> p :: acc) d.files [] |> List.sort String.compare

let poke d ~path data =
  Hashtbl.replace d.files path (file_of_bytes (Bytes.copy data))

(* FNV-1a, used by checkers to validate stored payloads. An indexed loop
   keeps [h] unboxed; a closure capturing it would box an int64 per byte. *)
let checksum b =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to Bytes.length b - 1 do
    h := Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        0x100000001b3L
  done;
  !h
