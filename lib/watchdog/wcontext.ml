(* Watchdog context table (§3.1 State Synchronization).

   Hooks in the main program push live values in (one-way: the main program
   never reads the table); the driver checks readiness and fetches arguments
   before running a checker. Isolation is the paper's context replication —
   a checker can never alias mutable main-program memory — implemented
   copy-on-write instead of eagerly:

   - values with no VBytes anywhere are persistent, so handing out the
     stored value *is* a deep copy, observably;
   - bytes-containing values are copied on read, with the copy cached
     against the slot's version stamp: re-reading an unchanged slot reuses
     the cached copy (checker execution never mutates argument buffers in
     place — the IR has no in-place bytes primitive — so a cached copy
     stays byte-identical to a fresh one). *)

open Wd_ir.Ast

type slot = {
  mutable value : value option;
  mutable updated_at : int64;
  mutable version : int;       (* bumped on every hook write *)
  mutable copy_version : int;  (* version [copy] reflects; -1 = no copy yet *)
  mutable copy : value;        (* valid iff [copy_version = version] *)
}

type unit_ctx = {
  unit_id : string;
  params : string list; (* ordered: the reduced function's parameter list *)
  slots : (string, slot) Hashtbl.t;
  mutable updates : int;
}

type hook_binding = {
  hb_unit : string;
  hb_captures : (string * string) list; (* (context param, tmp variable) *)
}

type t = {
  units : (string, unit_ctx) Hashtbl.t;
  hook_bindings : (int, hook_binding) Hashtbl.t;
  mutable total_updates : int;
}

(* A hook resolved against the table: the unit it feeds and, per captured
   variable, the slot it writes ([no_slot] when the variable feeds none). *)
type capture = { cp_t : t; cp_unit : unit_ctx; cp_slots : slot array }

let no_slot =
  { value = None; updated_at = 0L; version = 0; copy_version = -1; copy = VUnit }

let create () =
  { units = Hashtbl.create 32; hook_bindings = Hashtbl.create 32; total_updates = 0 }

let register_unit t ~unit_id ~params =
  let slots = Hashtbl.create (max 1 (List.length params)) in
  List.iter
    (fun p ->
      Hashtbl.replace slots p
        {
          value = None;
          updated_at = 0L;
          version = 0;
          copy_version = -1;
          copy = VUnit;
        })
    params;
  Hashtbl.replace t.units unit_id { unit_id; params; slots; updates = 0 }

let bind_hook t ~hook_id ~unit_id ~captures =
  Hashtbl.replace t.hook_bindings hook_id
    { hb_unit = unit_id; hb_captures = captures }

let find_unit t unit_id = Hashtbl.find_opt t.units unit_id

(* Resolved once per hook: the first capture of a variable decides the
   param it feeds. *)
let capture t ~hook_id ~vars =
  match Hashtbl.find_opt t.hook_bindings hook_id with
  | None -> None
  | Some { hb_unit; hb_captures } -> (
      match find_unit t hb_unit with
      | None -> None
      | Some ctx ->
          let slot_of tmp =
            match
              List.find_map
                (fun (param, tmp') -> if tmp' = tmp then Some param else None)
                hb_captures
            with
            | None -> no_slot
            | Some param ->
                Option.value (Hashtbl.find_opt ctx.slots param) ~default:no_slot
          in
          Some
            {
              cp_t = t;
              cp_unit = ctx;
              cp_slots = Array.of_list (List.map slot_of vars);
            })

(* One hook fire: store each bound variable into its slot. *)
let deliver c ~now vals =
  let slots = c.cp_slots in
  for j = 0 to Array.length slots - 1 do
    match vals.(j) with
    | None -> ()
    | Some _ as v ->
        let slot = slots.(j) in
        if slot != no_slot then begin
          slot.value <- v;
          slot.updated_at <- now;
          slot.version <- slot.version + 1
        end
  done;
  c.cp_unit.updates <- c.cp_unit.updates + 1;
  c.cp_t.total_updates <- c.cp_t.total_updates + 1

let ready t unit_id =
  match find_unit t unit_id with
  | None -> false
  | Some ctx ->
      List.for_all
        (fun p ->
          match Hashtbl.find_opt ctx.slots p with
          | Some { value = Some _; _ } -> true
          | Some { value = None; _ } | None -> false)
        ctx.params

(* Copy-on-write read of one slot: share persistent values outright; copy
   bytes-containing values once per version and reuse the cached copy until
   the next hook write replaces it (the cache swaps the pointer, never
   mutates the handed-out copy, so earlier readers keep a valid value). *)
let slot_read slot v =
  if value_immutable v then v
  else if slot.copy_version = slot.version then slot.copy
  else begin
    let c = copy_value v in
    slot.copy <- c;
    slot.copy_version <- slot.version;
    c
  end

(* Ordered argument list for the reduced function; observably a deep copy. *)
let args t unit_id =
  match find_unit t unit_id with
  | None -> None
  | Some ctx ->
      let rec gather = function
        | [] -> Some []
        | p :: rest -> (
            match Hashtbl.find_opt ctx.slots p with
            | Some ({ value = Some v; _ } as slot) -> (
                match gather rest with
                | Some vs -> Some (slot_read slot v :: vs)
                | None -> None)
            | Some { value = None; _ } | None -> None)
      in
      gather ctx.params

(* Captured (param, value) pairs for failure reports. *)
let snapshot t unit_id =
  match find_unit t unit_id with
  | None -> []
  | Some ctx ->
      List.filter_map
        (fun p ->
          match Hashtbl.find_opt ctx.slots p with
          | Some ({ value = Some v; _ } as slot) -> Some (p, slot_read slot v)
          | Some { value = None; _ } | None -> None)
        ctx.params

(* Age of the stalest slot: how long since the main program last passed this
   point. *)
let staleness t ~now unit_id =
  match find_unit t unit_id with
  | None -> None
  | Some ctx ->
      if ctx.params = [] then None
      else
        List.fold_left
          (fun acc p ->
            match Hashtbl.find_opt ctx.slots p with
            | Some { value = Some _; updated_at; _ } -> (
                let age = Int64.sub now updated_at in
                match acc with
                | Some worst when worst >= age -> acc
                | Some _ | None -> Some age)
            | Some { value = None; _ } | None -> acc)
          None ctx.params

let updates t unit_id =
  match find_unit t unit_id with Some ctx -> ctx.updates | None -> 0

(* The unit's monotone context version: bumped once per hook delivery, so
   an unchanged version means every slot holds exactly the bytes a previous
   reader saw (writes only happen in [deliver]). This is the dedup key the
   adaptive scheduler pairs with a checker id, and — because [slot_read]
   caches copies against slot versions — co-scheduled checkers reading the
   same unit at one version share one COW snapshot rather than re-copying. *)
let version = updates

let total_updates t = t.total_updates
