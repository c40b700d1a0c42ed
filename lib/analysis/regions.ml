(* Long-running region identification (§4.1 step 1).

   A region is code that "may be executed continuously" in production:
   the body of a loop inside a function reachable from a program entry, or
   the whole body of a function annotated [Long_running]. Initialisation
   code — everything outside such loops — is excluded from checking, as the
   paper prescribes. *)

open Wd_ir.Ast

type t = {
  region_id : string;
  root_func : string;       (* function hosting the loop *)
  loop_loc : Wd_ir.Loc.t option;  (* None for annotated whole-function regions *)
  body : block;             (* the continuously-executing code *)
  reachable : string list;  (* functions callable from [body] *)
}

let rec loops_of_block block acc =
  List.fold_left
    (fun acc st ->
      match st.node with
      | While (_, body) -> loops_of_block body ((st.loc, body) :: acc)
      | Foreach (_, _, body) -> loops_of_block body acc
      | If (_, t, e) -> loops_of_block e (loops_of_block t acc)
      | Sync (_, b) -> loops_of_block b acc
      | Try (b, _, h) -> loops_of_block h (loops_of_block b acc)
      | Let _ | Assign _ | Op _ | Call _ | Return _ | Assert _ | Compute _
      | Hook _ ->
          acc)
    acc block

(* Functions directly called from a block (call sites only, not transitive). *)
let direct_callees block = List.map fst (Callgraph.callees_of_block block [])

let reachable_from cg block =
  let direct = direct_callees block in
  List.sort_uniq String.compare
    (List.concat_map (fun f -> Callgraph.reachable cg f) direct)

let find prog =
  let cg = Callgraph.build prog in
  let entry_roots =
    List.sort_uniq String.compare (List.map (fun e -> e.entry_func) prog.entries)
  in
  let reachable_funcs =
    List.sort_uniq String.compare
      (List.concat_map (fun root -> Callgraph.reachable cg root) entry_roots)
  in
  let regions = ref [] in
  let add r = regions := r :: !regions in
  List.iter
    (fun f ->
      if List.mem f.fname reachable_funcs || List.mem Long_running f.annots then begin
        (* Outermost loops in the function body are region roots. *)
        let loops = List.rev (loops_of_block f.body []) in
        List.iteri
          (fun i (loc, body) ->
            add
              {
                region_id = Fmt.str "%s#loop%d" f.fname i;
                root_func = f.fname;
                loop_loc = Some loc;
                body;
                reachable = reachable_from cg body;
              })
          loops;
        if loops = [] && List.mem Long_running f.annots then
          add
            {
              region_id = Fmt.str "%s#body" f.fname;
              root_func = f.fname;
              loop_loc = None;
              body = f.body;
              reachable = reachable_from cg f.body;
            }
      end)
    prog.funcs;
  List.rev !regions
