(* Failure reports produced by watchdog checkers. A report carries what the
   paper says an intrinsic detector should provide: a verdict, the
   pinpointed code location, and the failure-inducing payload (context
   values) for diagnosis and reproduction. *)

type fkind =
  | Hang            (* liveness: checker (or op) did not complete in time *)
  | Slow            (* liveness: completed but beyond its latency budget *)
  | Error_sig of string   (* safety: operation raised an error *)
  | Assert_fail of string (* safety: an embedded check failed *)
  | Checker_crash of string (* the checker itself died: still a signal *)

type t = {
  at : int64;
  checker_id : string;
  fkind : fkind;
  loc : Wd_ir.Loc.t option;   (* pinpointed failing statement *)
  op_desc : string;           (* e.g. "disk_write(data)" *)
  payload : (string * Wd_ir.Ast.value) list;  (* captured context *)
  mutable validated : bool option;  (* probe-after-mimic confirmation *)
}

let make ~at ~checker_id ~fkind ?loc ?(op_desc = "") ?(payload = []) () =
  { at; checker_id; fkind; loc; op_desc; payload; validated = None }

let is_liveness r = match r.fkind with Hang | Slow -> true | _ -> false

let fkind_name = function
  | Hang -> "hang"
  | Slow -> "slow"
  | Error_sig _ -> "error"
  | Assert_fail _ -> "assert"
  | Checker_crash _ -> "checker-crash"

(* --- wire codec -------------------------------------------------------

   Canonical serialisation for shipping a report across a fabric: fleet
   evidence must travel as data, not closures, so every field — including
   the captured mimic payload values — has a byte-stable encoding. The
   format is a tagged, length-prefixed text form: deterministic (no
   hashing, no marshalling), so the same report encodes to the same bytes
   on every run, which the digest/corroboration layer relies on. *)

let wire_magic = "WDR1|"

exception Wire_error of string

let enc_str b s =
  Buffer.add_string b (string_of_int (String.length s));
  Buffer.add_char b ':';
  Buffer.add_string b s

let enc_int b n =
  Buffer.add_string b (string_of_int n);
  Buffer.add_char b ';'

let enc_i64 b n =
  Buffer.add_string b (Int64.to_string n);
  Buffer.add_char b ';'

let rec enc_value b (v : Wd_ir.Ast.value) =
  match v with
  | Wd_ir.Ast.VUnit -> Buffer.add_char b 'u'
  | Wd_ir.Ast.VBool true -> Buffer.add_char b 'T'
  | Wd_ir.Ast.VBool false -> Buffer.add_char b 'F'
  | Wd_ir.Ast.VInt n ->
      Buffer.add_char b 'i';
      enc_int b n
  | Wd_ir.Ast.VStr s ->
      Buffer.add_char b 's';
      enc_str b s
  | Wd_ir.Ast.VBytes by ->
      Buffer.add_char b 'y';
      enc_str b (Bytes.to_string by)
  | Wd_ir.Ast.VList vs ->
      Buffer.add_char b 'l';
      enc_int b (List.length vs);
      List.iter (enc_value b) vs
  | Wd_ir.Ast.VPair (x, y) ->
      Buffer.add_char b 'p';
      enc_value b x;
      enc_value b y
  | Wd_ir.Ast.VMap kvs ->
      Buffer.add_char b 'm';
      enc_int b (List.length kvs);
      List.iter
        (fun (k, v) ->
          enc_str b k;
          enc_value b v)
        kvs

let enc_fkind b = function
  | Hang -> Buffer.add_char b 'H'
  | Slow -> Buffer.add_char b 'S'
  | Error_sig m ->
      Buffer.add_char b 'E';
      enc_str b m
  | Assert_fail m ->
      Buffer.add_char b 'A';
      enc_str b m
  | Checker_crash m ->
      Buffer.add_char b 'C';
      enc_str b m

let to_wire r =
  let b = Buffer.create 128 in
  Buffer.add_string b wire_magic;
  enc_i64 b r.at;
  enc_str b r.checker_id;
  enc_fkind b r.fkind;
  (match r.loc with
  | None -> Buffer.add_char b 'N'
  | Some l ->
      Buffer.add_char b 'L';
      enc_str b (Wd_ir.Loc.func l);
      let path = Wd_ir.Loc.path l in
      enc_int b (List.length path);
      List.iter (enc_int b) path;
      enc_int b (Wd_ir.Loc.uid l));
  enc_str b r.op_desc;
  enc_int b (List.length r.payload);
  List.iter
    (fun (k, v) ->
      enc_str b k;
      enc_value b v)
    r.payload;
  (match r.validated with
  | None -> Buffer.add_char b 'N'
  | Some true -> Buffer.add_char b 'T'
  | Some false -> Buffer.add_char b 'F');
  Buffer.contents b

(* decoder: a cursor over the string; any shape violation raises
   [Wire_error], caught at the [of_wire] boundary *)

type cursor = { s : string; mutable pos : int }

let fail msg = raise (Wire_error msg)

let take c =
  if c.pos >= String.length c.s then fail "truncated";
  let ch = c.s.[c.pos] in
  c.pos <- c.pos + 1;
  ch

let dec_num c ~stop ~of_string ~what =
  let start = c.pos in
  let len = String.length c.s in
  while c.pos < len && c.s.[c.pos] <> stop do
    c.pos <- c.pos + 1
  done;
  if c.pos >= len then fail ("truncated " ^ what);
  let digits = String.sub c.s start (c.pos - start) in
  c.pos <- c.pos + 1;
  match of_string digits with
  | Some n -> n
  | None -> fail ("bad " ^ what ^ " " ^ digits)

(* Canonical decimal only: [int_of_string_opt] also accepts hex/octal/
   binary prefixes, '_' separators and a leading '+', which would let two
   distinct byte strings decode to equal reports — breaking the
   injectivity the evidence digest layer relies on. Decoding then
   re-rendering pins the accepted form to exactly what the encoder
   emits. *)
let canonical_int s =
  match int_of_string_opt s with
  | Some n when String.equal (string_of_int n) s -> Some n
  | _ -> None

let canonical_i64 s =
  match Int64.of_string_opt s with
  | Some n when String.equal (Int64.to_string n) s -> Some n
  | _ -> None

let dec_int c = dec_num c ~stop:';' ~of_string:canonical_int ~what:"int"
let dec_i64 c = dec_num c ~stop:';' ~of_string:canonical_i64 ~what:"int64"

let dec_str c =
  let n = dec_num c ~stop:':' ~of_string:canonical_int ~what:"length" in
  (* against the bytes left: [c.pos + n] overflows for [n] near [max_int] *)
  if n < 0 || n > String.length c.s - c.pos then fail "bad string length";
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

(* Containers ('l', 'p', 'm') may nest at most this deep. The decoder
   recurses once per level, so without a bound a hostile wire of a few
   million nested maps overflows the stack (and the deep stack slows every
   minor GC long before that). Every run's shipped payloads nest at most
   one level deep. *)
let wire_max_nesting = 64

let rec dec_value c ~depth : Wd_ir.Ast.value =
  match take c with
  | 'u' -> Wd_ir.Ast.VUnit
  | 'T' -> Wd_ir.Ast.VBool true
  | 'F' -> Wd_ir.Ast.VBool false
  | 'i' -> Wd_ir.Ast.VInt (dec_int c)
  | 's' -> Wd_ir.Ast.VStr (dec_str c)
  | 'y' -> Wd_ir.Ast.VBytes (Bytes.of_string (dec_str c))
  | ('l' | 'p' | 'm') when depth >= wire_max_nesting -> fail "nested too deep"
  | 'l' ->
      let n = dec_int c in
      if n < 0 then fail "bad list length";
      Wd_ir.Ast.VList (List.init n (fun _ -> dec_value c ~depth:(depth + 1)))
  | 'p' ->
      let x = dec_value c ~depth:(depth + 1) in
      let y = dec_value c ~depth:(depth + 1) in
      Wd_ir.Ast.VPair (x, y)
  | 'm' ->
      let n = dec_int c in
      if n < 0 then fail "bad map length";
      Wd_ir.Ast.VMap
        (List.init n (fun _ ->
             let k = dec_str c in
             let v = dec_value c ~depth:(depth + 1) in
             (k, v)))
  | ch -> fail (Fmt.str "unknown value tag %c" ch)

let dec_fkind c =
  match take c with
  | 'H' -> Hang
  | 'S' -> Slow
  | 'E' -> Error_sig (dec_str c)
  | 'A' -> Assert_fail (dec_str c)
  | 'C' -> Checker_crash (dec_str c)
  | ch -> fail (Fmt.str "unknown fkind tag %c" ch)

let of_wire s =
  try
    let magic_len = String.length wire_magic in
    if
      String.length s < magic_len
      || String.sub s 0 magic_len <> wire_magic
    then fail "bad magic";
    let c = { s; pos = magic_len } in
    let at = dec_i64 c in
    let checker_id = dec_str c in
    let fkind = dec_fkind c in
    let loc =
      match take c with
      | 'N' -> None
      | 'L' ->
          let func = dec_str c in
          let n = dec_int c in
          if n < 0 then fail "bad path length";
          let path = List.init n (fun _ -> dec_int c) in
          let uid = dec_int c in
          Some (Wd_ir.Loc.make ~func ~path ~uid)
      | ch -> fail (Fmt.str "unknown loc tag %c" ch)
    in
    let op_desc = dec_str c in
    let n = dec_int c in
    if n < 0 then fail "bad payload length";
    let payload =
      List.init n (fun _ ->
          let k = dec_str c in
          let v = dec_value c ~depth:0 in
          (k, v))
    in
    let validated =
      match take c with
      | 'N' -> None
      | 'T' -> Some true
      | 'F' -> Some false
      | ch -> fail (Fmt.str "unknown validated tag %c" ch)
    in
    if c.pos <> String.length s then fail "trailing bytes";
    let r = make ~at ~checker_id ~fkind ?loc ~op_desc ~payload () in
    r.validated <- validated;
    Ok r
  with Wire_error msg -> Error msg

let pp ppf r =
  let detail =
    match r.fkind with
    | Hang -> ""
    | Slow -> ""
    | Error_sig m | Assert_fail m | Checker_crash m -> ": " ^ m
  in
  Fmt.pf ppf "[%a] %s %s%s %a%s%s" Wd_sim.Time.pp r.at r.checker_id
    (fkind_name r.fkind) detail
    Fmt.(option ~none:(any "<no loc>") Wd_ir.Loc.pp)
    r.loc
    (if r.op_desc = "" then "" else " at " ^ r.op_desc)
    (match r.validated with
    | None -> ""
    | Some true -> " (validated)"
    | Some false -> " (not confirmed)")
