(* Pure primitives callable from IR expressions via [Prim (name, args)].
   All of them are deterministic functions of their arguments; effectful
   behaviour is reserved for [Op] statements so that the vulnerability
   analysis sees every effect.

   Each primitive is defined once, in [table], as an implementation of its
   arity. The compiled engine binds a [Prim] node to its implementation
   when it compiles it; [apply] (the tree-walker's entry) and [known] (the
   validator's) are derived from the same table. *)

open Ast

exception Prim_error of string

let err fmt = Fmt.kstr (fun s -> raise (Prim_error s)) fmt

(* The error for a name with no implementation, a wrong arity or an
   argument of the wrong shape. *)
let unknown name n = err "unknown primitive %s/%d" name n

let as_str = function VStr s -> s | v -> err "expected string, got %a" pp_value v

(* FNV-1a over the printed form: a stable, portable content hash. Hashes
   straight out of the domain's render buffer — no intermediate string. *)
let hash_value v =
  with_rendered v (fun buf ->
      let h = ref 0xcbf29ce484222325L in
      for i = 0 to Buffer.length buf - 1 do
        h := Int64.logxor !h (Int64.of_int (Char.code (Buffer.nth buf i)));
        h := Int64.mul !h 0x100000001b3L
      done;
      Int64.to_int (Int64.logand !h 0x3FFFFFFFFFFFFFFFL))

(* Map keys are strings: [String.equal] is the equality polymorphic
   [compare] gives on them, without the generic dispatch. First match wins,
   as with [List.assoc]/[List.remove_assoc]. *)
let rec key_find k default = function
  | [] -> default
  | (k', v) :: rest -> if String.equal k k' then v else key_find k default rest

let rec key_mem k = function
  | [] -> false
  | (k', _) :: rest -> String.equal k k' || key_mem k rest

let rec key_remove k = function
  | [] -> []
  | ((k', _) as kv) :: rest ->
      if String.equal k k' then rest else kv :: key_remove k rest

(* Private miss marker for [map_get]: no map value is physically equal to
   it. *)
let missing = VStr "\x00wd:missing\x00"

(* [sub] occurs in [s]; stops at the first match and allocates nothing. *)
let contains s sub =
  let n = String.length sub and last = String.length s - String.length sub in
  let rec match_at i j =
    j = n || (String.unsafe_get s (i + j) = String.unsafe_get sub j && match_at i (j + 1))
  in
  let rec scan i = i <= last && (match_at i 0 || scan (i + 1)) in
  n = 0 || scan 0

type impl =
  | A0 of (unit -> value)
  | A1 of (value -> value)
  | A2 of (value -> value -> value)
  | A3 of (value -> value -> value -> value)
  | An of (value list -> value)

(* Every entry receives its own name, for the wrong-shape error. *)
let table : (string * impl) list =
  let def name mk = (name, mk name) in
  [
    def "str_of_int" (fun name ->
        A1 (function VInt i -> VStr (string_of_int i) | _ -> unknown name 1));
    def "int_of_str" (fun name ->
        A1 (function
          | VStr s -> (
              match int_of_string_opt s with
              | Some i -> VInt i
              | None -> err "int_of_str %S" s)
          | _ -> unknown name 1));
    def "bytes_of_str" (fun name ->
        A1 (function VStr s -> VBytes (Bytes.of_string s) | _ -> unknown name 1));
    def "str_of_bytes" (fun name ->
        A1 (function VBytes b -> VStr (Bytes.to_string b) | _ -> unknown name 1));
    def "bytes_make" (fun name ->
        A2
          (fun a b ->
            match (a, b) with
            | VInt n, VStr fill ->
                let c = if String.length fill > 0 then fill.[0] else '\000' in
                if n < 0 then err "bytes_make %d" n else VBytes (Bytes.make n c)
            | _ -> unknown name 2));
    def "bytes_cat" (fun name ->
        A2
          (fun a b ->
            match (a, b) with
            | VBytes a, VBytes b -> VBytes (Bytes.cat a b)
            | _ -> unknown name 2));
    def "checksum" (fun name ->
        A1 (function
          | VBytes b ->
              VInt
                (Int64.to_int
                   (Int64.logand (Wd_env.Disk.checksum b) 0x3FFFFFFFFFFFFFFFL))
          | _ -> unknown name 1));
    def "hash" (fun _ -> A1 (fun v -> VInt (hash_value v)));
    def "concat" (fun _ ->
        An (fun parts -> VStr (String.concat "" (List.map as_str parts))));
    def "contains" (fun name ->
        A2
          (fun a b ->
            match (a, b) with
            | VStr s, VStr sub -> VBool (contains s sub)
            | _ -> unknown name 2));
    def "map_empty" (fun _ -> A0 (fun () -> VMap []));
    def "map_put" (fun name ->
        A3
          (fun m k v ->
            match (m, k) with
            | VMap m, VStr k -> VMap ((k, v) :: key_remove k m)
            | _ -> unknown name 3));
    def "map_get" (fun name ->
        A2
          (fun m k ->
            match (m, k) with
            | VMap m, VStr k ->
                let v = key_find k missing m in
                if v == missing then err "map_get %S" k else v
            | _ -> unknown name 2));
    def "map_get_opt" (fun name ->
        A3
          (fun m k default ->
            match (m, k) with
            | VMap m, VStr k -> key_find k default m
            | _ -> unknown name 3));
    def "map_mem" (fun name ->
        A2
          (fun m k ->
            match (m, k) with
            | VMap m, VStr k -> VBool (key_mem k m)
            | _ -> unknown name 2));
    def "map_del" (fun name ->
        A2
          (fun m k ->
            match (m, k) with
            | VMap m, VStr k -> VMap (key_remove k m)
            | _ -> unknown name 2));
    def "map_len" (fun name ->
        A1 (function VMap m -> VInt (List.length m) | _ -> unknown name 1));
    def "map_keys" (fun name ->
        A1 (function
          | VMap m -> VList (List.map (fun (k, _) -> VStr k) (List.sort compare m))
          | _ -> unknown name 1));
    def "list_rev" (fun name ->
        A1 (function VList l -> VList (List.rev l) | _ -> unknown name 1));
    def "list_append" (fun name ->
        A2
          (fun a b ->
            match (a, b) with
            | VList a, VList b -> VList (a @ b)
            | _ -> unknown name 2));
    def "list_cons" (fun name ->
        A2 (fun v l -> match l with VList l -> VList (v :: l) | _ -> unknown name 2));
    def "list_head" (fun name ->
        A1 (function
          | VList (v :: _) -> v
          | VList [] -> err "list_head []"
          | _ -> unknown name 1));
    def "list_tail" (fun name ->
        A1 (function
          | VList (_ :: l) -> VList l
          | VList [] -> err "list_tail []"
          | _ -> unknown name 1));
    def "list_nth" (fun name ->
        A2
          (fun l i ->
            match (l, i) with
            | VList l, VInt i -> (
                match List.nth_opt l i with
                | Some v -> v
                | None -> err "list_nth %d" i)
            | _ -> unknown name 2));
    def "list_mem" (fun name ->
        A2
          (fun v l ->
            match l with
            | VList l -> VBool (List.exists (value_equal v) l)
            | _ -> unknown name 2));
    def "range" (fun name ->
        A1 (function
          | VInt n -> VList (List.init (max 0 n) (fun i -> VInt i))
          | _ -> unknown name 1));
    def "min" (fun name ->
        A2
          (fun a b ->
            match (a, b) with VInt a, VInt b -> VInt (min a b) | _ -> unknown name 2));
    def "max" (fun name ->
        A2
          (fun a b ->
            match (a, b) with VInt a, VInt b -> VInt (max a b) | _ -> unknown name 2));
    def "is_sorted" (fun name ->
        A1 (function
          | VList l ->
              let rec check = function
                | VStr a :: (VStr b :: _ as rest) ->
                    if String.compare a b <= 0 then check rest else false
                | VInt a :: (VInt b :: _ as rest) ->
                    if a <= b then check rest else false
                | [ _ ] | [] -> true
                | _ -> err "is_sorted: heterogeneous list"
              in
              VBool (check l)
          | _ -> unknown name 1));
    def "not" (fun name ->
        A1 (function VBool b -> VBool (not b) | _ -> unknown name 1));
    def "serialize" (fun _ -> A1 (fun v -> VStr (value_to_string v)));
    def "str_drop" (fun name ->
        A2
          (fun s n ->
            match (s, n) with
            | VStr s, VInt n ->
                if n < 0 then err "str_drop %d" n
                else if n >= String.length s then VStr ""
                else VStr (String.sub s n (String.length s - n))
            | _ -> unknown name 2));
    def "str_take" (fun name ->
        A2
          (fun s n ->
            match (s, n) with
            | VStr s, VInt n ->
                if n < 0 then err "str_take %d" n
                else VStr (String.sub s 0 (min n (String.length s)))
            | _ -> unknown name 2));
    def "dirname" (fun name ->
        A1 (function
          | VStr s -> (
              match String.rindex_opt s '/' with
              | Some i -> VStr (String.sub s 0 (i + 1))
              | None -> VStr "")
          | _ -> unknown name 1));
    def "ends_with" (fun name ->
        A2
          (fun b suffix ->
            match (b, suffix) with
            | VBytes b, VBytes suffix ->
                let nb = Bytes.length b and ns = Bytes.length suffix in
                VBool (nb >= ns && Bytes.sub b (nb - ns) ns = suffix)
            | _ -> unknown name 2));
    def "pad_left" (fun name ->
        A3
          (fun s width fill ->
            match (s, width, fill) with
            | VStr s, VInt width, VStr fill ->
                let c = if String.length fill > 0 then fill.[0] else '0' in
                if String.length s >= width then VStr s
                else VStr (String.make (width - String.length s) c ^ s)
            | _ -> unknown name 3));
  ]

let by_name =
  let h = Hashtbl.create 64 in
  List.iter (fun (name, impl) -> Hashtbl.replace h name impl) table;
  h

let find name = Hashtbl.find_opt by_name name
let known = List.map fst table
let is_known name = Hashtbl.mem by_name name

let apply name args =
  match (find name, args) with
  | Some (A0 f), [] -> f ()
  | Some (A1 f), [ a ] -> f a
  | Some (A2 f), [ a; b ] -> f a b
  | Some (A3 f), [ a; b; c ] -> f a b c
  | Some (An f), args -> f args
  | (Some _ | None), _ -> unknown name (List.length args)
