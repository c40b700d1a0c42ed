(* Differential tests between the IR engine — the closure compiler
   (Wd_ir.Compile) — and the tree-walking reference semantics, reached
   through [Interp.Reference.within]. The two must be observationally
   identical — statement counts, virtual-time progression, final global
   state, Violation payloads and whole-system results — on arbitrary
   programs, on every error path, on the fault catalog, the fleet and the
   load plane. *)

open Wd_ir
open Ast
module B = Builder
module Sched = Wd_sim.Sched
module Time = Wd_sim.Time
module Randgen = Wd_testgen.Randgen

(* --- random programs: identical traces over >= 50 seeds --- *)

type trace = {
  tr_stmts : int;
  tr_end : int64;  (* virtual time when the run went quiescent *)
  tr_globals : (string * value) list;
}

let reference = Interp.Reference.within

let run_trace seed =
  let prog = Randgen.gen_program seed in
  let sched = Sched.create ~seed () in
  let reg = Wd_env.Faultreg.create () in
  let res = Randgen.make_env ~reg ~seed in
  let main = Interp.create ~node:"n1" ~res prog in
  ignore (Interp.start main sched);
  ignore (Sched.run ~until:(Time.sec 12) sched);
  {
    tr_stmts = Interp.stmts_executed main;
    tr_end = Sched.now sched;
    tr_globals =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) res.Runtime.globals []
      |> List.sort compare;
  }

let n_seeds = 60

let test_randprog_traces () =
  for seed = 0 to n_seeds - 1 do
    let c = run_trace seed in
    let t = reference (fun () -> run_trace seed) in
    Alcotest.(check int) (Fmt.str "stmts_executed (seed %d)" seed) t.tr_stmts
      c.tr_stmts;
    Alcotest.(check int64) (Fmt.str "virtual end time (seed %d)" seed)
      t.tr_end c.tr_end;
    if c.tr_globals <> t.tr_globals then
      Alcotest.failf "final globals differ at seed %d:@.compiled %a@.reference %a"
        seed
        Fmt.(list ~sep:sp (pair string pp_value))
        c.tr_globals
        Fmt.(list ~sep:sp (pair string pp_value))
        t.tr_globals
  done

(* --- error paths: byte-identical Violation / Ir_error payloads --- *)

(* Run [fname] on a fresh node and render whatever it raises. *)
let outcome_of prog fname =
  let sched = Sched.create ~seed:7 () in
  let reg = Wd_env.Faultreg.create () in
  let res = Randgen.make_env ~reg ~seed:7 in
  let it = Interp.create ~node:"n1" ~res prog in
  let out = ref "no outcome" in
  ignore
    (Sched.spawn ~name:"diff" sched (fun () ->
         match Interp.call it fname [] with
         | v -> out := Fmt.str "value %a" pp_value v
         | exception Interp.Violation { loc; vkind; msg } ->
             out := Fmt.str "violation %a %s: %s" Loc.pp loc vkind msg
         | exception Ir_error m -> out := "ir_error: " ^ m));
  ignore (Sched.run ~until:(Time.sec 5) sched);
  !out

let ret e = [ B.return e ]
let prog_of body = B.program "bad" ~funcs:[ B.func "f" ~params:[] body ] ~entries:[]

let bad_cases =
  [
    ("unbound variable", prog_of (ret (B.v "nope")));
    ("int op on bool", prog_of (ret B.(bconst true +: i 1)));
    ("int op on str rhs", prog_of (ret B.(i 1 *: s "x")));
    ("comparison on mixed", prog_of (ret B.(s "a" <: i 1)));
    ("concat on non-str", prog_of (ret B.(i 1 ^: s "x")));
    ("division by zero", prog_of (ret B.(i 1 /: i 0)));
    ("mod by zero", prog_of (ret B.(i 7 %: i 0)));
    ("not on int", prog_of (ret (B.not_ (B.i 3))));
    ("neg on str", prog_of (ret (B.neg (B.s "x"))));
    ("len on int", prog_of (ret (B.len (B.i 3))));
    ("len on list ok", prog_of (ret (B.len (B.prim "range" [ B.i 4 ]))));
    ("len on map ok", prog_of (ret (B.len (B.prim "map_empty" []))));
    ("fst on non-pair", prog_of (ret (B.fst_ (B.i 1))));
    ("snd on non-pair", prog_of (ret (B.snd_ (B.s "p"))));
    ( "condition not bool",
      prog_of [ B.if_ (B.i 1) [ B.return_unit ] [ B.return_unit ] ] );
    ("logic op on non-bool lhs", prog_of (ret B.(i 1 &&: bconst true)));
    ("logic short-circuits bad rhs", prog_of (ret B.(bconst false &&: i 3)));
    ( "foreach over non-list",
      prog_of [ B.foreach "x" (B.i 3) [ B.return_unit ]; B.return_unit ] );
    ("unknown prim", prog_of [ B.let_ "x" (B.prim "no_such_prim" []); B.return_unit ]);
    ("prim arg error", prog_of (ret (B.prim "list_head" [ B.prim "list_empty" [] ])));
    ("assert failure", prog_of [ B.assert_ (B.bconst false) "boom" ]);
    ( "call arity",
      B.program "bad"
        ~funcs:
          [
            B.func "f" ~params:[] [ B.call "g" []; B.return_unit ];
            B.func "g" ~params:[ "a" ] [ B.return (B.v "a") ];
          ]
        ~entries:[] );
    ( "unknown function",
      prog_of [ B.call "missing" [ B.i 1 ]; B.return_unit ] );
    ( "call depth exceeded",
      B.program "bad"
        ~funcs:[ B.func "f" ~params:[] [ B.call "f" []; B.return_unit ] ]
        ~entries:[] );
  ]

let test_error_payloads () =
  List.iter
    (fun (name, prog) ->
      let c = outcome_of prog "f" in
      let t = reference (fun () -> outcome_of prog "f") in
      Alcotest.(check string) name t c;
      Alcotest.(check bool)
        (name ^ " produced an outcome")
        false (c = "no outcome"))
    bad_cases

(* --- IC invalidation: redefinition-after-compile, trace-diffed ---

   Same random programs, but the compiled run has its compile cache cleared
   mid-run (epoch bump) while a *different* random program is compiled in
   between — the classic redefinition-after-compile pattern. Every call
   site's inline cache must refill against the new epoch and keep executing
   its own (unchanged) program: traces stay byte-identical to the
   tree-walker, and the refill counter moves. *)

let run_trace_with_redefinition seed =
  let prog = Randgen.gen_program seed in
  let sched = Sched.create ~seed () in
  let reg = Wd_env.Faultreg.create () in
  let res = Randgen.make_env ~reg ~seed in
  let main = Interp.create ~node:"n1" ~res prog in
  ignore (Interp.start main sched);
  (* mid-run: invalidate, then compile an unrelated program into the fresh
     epoch so the old sites cannot accidentally revalidate *)
  Sched.at sched (Time.sec 5) (fun () ->
      Interp.clear_compile_cache ();
      ignore (Interp.precompile (Randgen.gen_program (seed + 1000))));
  Sched.at sched (Time.sec 8) (fun () -> Interp.clear_compile_cache ());
  ignore (Sched.run ~until:(Time.sec 12) sched);
  {
    tr_stmts = Interp.stmts_executed main;
    tr_end = Sched.now sched;
    tr_globals =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) res.Runtime.globals []
      |> List.sort compare;
  }

let n_redef_seeds = 30

let test_ic_invalidation_traces () =
  let refills0 = Interp.ic_refills () in
  for seed = 0 to n_redef_seeds - 1 do
    let c = run_trace_with_redefinition seed in
    let t = reference (fun () -> run_trace seed) in
    Alcotest.(check int)
      (Fmt.str "stmts_executed under redefinition (seed %d)" seed)
      t.tr_stmts c.tr_stmts;
    Alcotest.(check int64)
      (Fmt.str "virtual end time under redefinition (seed %d)" seed)
      t.tr_end c.tr_end;
    if c.tr_globals <> t.tr_globals then
      Alcotest.failf "final globals differ at seed %d under redefinition" seed
  done;
  Alcotest.(check bool)
    "epoch bumps forced inline-cache refills" true
    (Interp.ic_refills () > refills0)

(* --- frame pools: reuse on iterated calls, correctness on deep recursion --- *)

let pool_prog =
  B.program "pool"
    ~funcs:
      [
        B.func "leaf" ~params:[ "x" ]
          [ B.let_ "y" B.(v "x" +: i 1); B.return (B.v "y") ];
        B.func "iterate" ~params:[ "n" ]
          [
            B.let_ "i" (B.i 0);
            B.while_
              B.(v "i" <: v "n")
              [ B.call ~bind:"r" "leaf" [ B.v "i" ];
                B.assign "i" B.(v "i" +: i 1) ];
            B.return (B.v "i");
          ];
        (* depth-bounded double recursion: rec(n) = rec(n-1) + rec(n-1) at
           the bottom two levels, so frames are drawn and returned on both
           the normal and the deep path *)
        B.func "rec" ~params:[ "n" ]
          [
            B.if_
              B.(v "n" <=: i 0)
              [ B.return (B.i 1) ]
              [
                B.call ~bind:"a" "rec" [ B.(v "n" -: i 1) ];
                B.return B.(v "a" +: i 1);
              ];
          ];
      ]
    ~entries:[]

let run_pool_fn fname arg =
  let sched = Sched.create ~seed:11 () in
  let reg = Wd_env.Faultreg.create () in
  let res = Randgen.make_env ~reg ~seed:11 in
  let it = Interp.create ~node:"n1" ~res pool_prog in
  let out = ref VUnit in
  ignore
    (Sched.spawn ~name:"pool" sched (fun () ->
         out := Interp.call it fname [ VInt arg ]));
  ignore (Sched.run sched);
  (it, !out, Interp.stmts_executed it)

let test_frame_pool_reuse () =
  let it, v, _ = run_pool_fn "iterate" 10_000 in
  Alcotest.(check bool) "iterate result" true (v = VInt 10_000);
  (match Interp.frame_pool_stats it "leaf" with
  | None -> Alcotest.fail "no frame pool stats for leaf"
  | Some (pooled, hits) ->
      (* first call misses (empty pool), every later one must hit *)
      Alcotest.(check bool)
        (Fmt.str "leaf pool hits %d >= 9999" hits)
        true (hits >= 9_999);
      Alcotest.(check bool)
        (Fmt.str "leaf pool retains %d frame(s)" pooled)
        true
        (pooled >= 1 && pooled <= 32));
  (* the compiled form is shared through the compile cache, so a run that
     really walks the AST leaves its frame-pool hit count where it was *)
  let hits it = Option.map snd (Interp.frame_pool_stats it "leaf") in
  let before = hits it in
  let it_ref, v_ref, _ = reference (fun () -> run_pool_fn "iterate" 100) in
  Alcotest.(check bool) "reference iterate result" true (v_ref = VInt 100);
  Alcotest.(check (option int))
    "reference run draws no compiled frames" before (hits it_ref)

let test_deep_recursion_parity () =
  (* depth 500 sits just under the 512 budget: 500 live frames at peak,
     far beyond the pool cap, so growth and drain paths both run *)
  let _, vc, sc = run_pool_fn "rec" 500 in
  let _, vt, st = reference (fun () -> run_pool_fn "rec" 500) in
  Alcotest.(check bool) "deep recursion value parity" true (vc = vt);
  Alcotest.(check int) "deep recursion stmts parity" st sc;
  Alcotest.(check bool) "deep recursion computed" true (vc = VInt 501)

(* --- E17 fleet summaries: byte-identical to the reference and across
   widths --- *)

(* An experiment's renderer, reached through the registry by its repro
   command name. *)
let render name size =
  let module E = Wd_harness.Experiments in
  (List.find (fun e -> e.E.name = name) E.all).E.render size

let test_e17_engine_identity () =
  let module E = Wd_harness.Experiments in
  E.set_jobs 4;
  let compiled = render "cluster" 0 in
  E.set_jobs 1;
  let walked = reference (fun () -> render "cluster" 0) in
  Alcotest.(check string)
    "E17 fleet summary byte-identical to the reference and across --jobs \
     widths"
    compiled walked

(* --- E22 load plane: every row equals the reference ---

   Small request budget; the rows are virtual-time quantities, so the
   rendered table must match byte for byte. *)

let test_e22_load_identity () =
  let run () = render "load" 2_000 in
  let compiled = run () in
  Alcotest.(check string) "E22 load table byte-identical to the reference"
    compiled (reference run)

(* --- E18/E19 fleets: byte-identical to the reference --- *)

let test_fleets_identity () =
  let fleet name = render name 0 in
  Alcotest.(check string) "E18 failover byte-identical to the reference"
    (fleet "failover") (reference (fun () -> fleet "failover"));
  Alcotest.(check string) "E19 9- and 15-node fleets byte-identical to the \
     reference"
    (fleet "hetero") (reference (fun () -> fleet "hetero"))

(* --- primitives: each one's compiled binding against [Prims.apply] ---

   One program [f(a0, .., an-1) = return prim(a0, .., an-1)] per
   (primitive, arity), compiled once; random argument tuples run through it
   and through [Prims.apply]. Results, or error texts, must be
   byte-identical. Half the tuples take the argument shapes the primitive
   accepts (found by probing [apply] with one value per shape), so the
   success paths are drawn as often as the error ones. *)

let max_arity = 4
let shapes = [ `Unit; `Bool; `Int; `Str; `Bytes; `List; `Pair; `Map ]

let representative = function
  | `Unit -> VUnit
  | `Bool -> VBool true
  | `Int -> VInt 1
  | `Str -> VStr "a"
  | `Bytes -> VBytes (Bytes.of_string "a")
  | `List -> VList [ VInt 1 ]
  | `Pair -> VPair (VInt 1, VInt 2)
  | `Map -> VMap [ ("a", VInt 1) ]

let gen_text =
  QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; '/'; '"'; '\n' ]) (0 -- 4))

let rec gen_shaped depth shape =
  let open QCheck.Gen in
  let any = if depth = 0 then oneofl [ `Int; `Str ] else oneofl shapes in
  let sub = any >>= gen_shaped (depth - 1) in
  match shape with
  | `Unit -> return VUnit
  | `Bool -> map (fun b -> VBool b) bool
  | `Int -> map (fun i -> VInt i) (int_range (-2) 12)
  | `Str -> map (fun s -> VStr s) gen_text
  | `Bytes -> map (fun s -> VBytes (Bytes.of_string s)) gen_text
  | `List ->
      map
        (fun l -> VList l)
        (oneof
           [
             list_size (0 -- 3) (gen_shaped 0 `Int);
             list_size (0 -- 3) (gen_shaped 0 `Str);
             list_size (0 -- 3) sub;
           ])
  | `Pair -> map2 (fun a b -> VPair (a, b)) sub sub
  | `Map ->
      map
        (fun kvs -> VMap kvs)
        (list_size (0 -- 3) (pair (oneofl [ "a"; "b"; "ab"; "" ]) sub))

let rec tuples n =
  if n = 0 then [ [] ]
  else List.concat_map (fun t -> List.map (fun s -> s :: t) shapes) (tuples (n - 1))

let accepted =
  let memo = Hashtbl.create 64 in
  fun name ->
    match Hashtbl.find_opt memo name with
    | Some l -> l
    | None ->
        let ok shape_tuple =
          match Prims.apply name (List.map representative shape_tuple) with
          | _ -> true
          | exception Prims.Prim_error m ->
              not (String.starts_with ~prefix:"unknown primitive" m)
        in
        let l =
          List.concat_map
            (fun n -> List.filter ok (tuples n))
            (List.init max_arity (fun n -> n))
        in
        Hashtbl.add memo name l;
        l

let gen_prim_case =
  let open QCheck.Gen in
  oneofl ("no_such_prim" :: Prims.known) >>= fun name ->
  let random =
    int_range 0 max_arity >>= fun n ->
    map (fun args -> (name, args)) (list_repeat n (oneofl shapes >>= gen_shaped 1))
  in
  match accepted name with
  | [] -> random
  | good ->
      let well_typed =
        oneofl good >>= fun shape_tuple ->
        map (fun args -> (name, args)) (flatten_l (List.map (gen_shaped 1) shape_tuple))
      in
      oneof [ well_typed; random ]

let no_rt : unit Compile.rt =
  {
    Compile.exec_op0 = (fun () _ -> assert false);
    exec_op1 = (fun () _ _ -> assert false);
    exec_op2 = (fun () _ _ _ -> assert false);
    exec_opn = (fun () _ _ -> assert false);
    exec_sync = (fun () ~site:_ _ ~lock:_ ~desc:_ _ -> assert false);
    exec_hook = (fun () _ _ _ -> assert false);
  }

let prim_program =
  let memo = Hashtbl.create 64 in
  fun name n ->
    match Hashtbl.find_opt memo (name, n) with
    | Some cp -> cp
    | None ->
        let params = List.init n (Fmt.str "a%d") in
        let prog =
          B.program "prim"
            ~funcs:
              [ B.func "f" ~params [ B.return (B.prim name (List.map B.v params)) ] ]
            ~entries:[]
        in
        let cp = Compile.compile ~rt:no_rt prog in
        Hashtbl.add memo (name, n) cp;
        cp

let value_bytes v = Marshal.to_string (v : value) [ Marshal.No_sharing ]

let prim_compiled name args =
  let ctx = Compile.make_ctx ~stmt_cost:0 ~quantum:max_int ~max_depth:8 in
  match Compile.call (prim_program name (List.length args)) () ctx "f" args with
  | v -> "value " ^ value_bytes v
  | exception Compile.Violation { vkind; msg; _ } -> vkind ^ ": " ^ msg
  | exception e -> "raised " ^ Printexc.to_string e

let prim_reference name args =
  match Prims.apply name args with
  | v -> "value " ^ value_bytes v
  | exception Prims.Prim_error msg -> "prim: " ^ msg
  | exception e -> "raised " ^ Printexc.to_string e

let prop_prims_compiled_equal_apply =
  QCheck.Test.make ~name:"compiled primitives equal Prims.apply" ~count:4000
    (QCheck.make
       ~print:(fun (name, args) ->
         Fmt.str "%s(%a)" name Fmt.(list ~sep:comma pp_value) args)
       gen_prim_case)
    (fun (name, args) ->
      (* each side gets its own copy of any bytes *)
      let c = prim_compiled name (List.map copy_value args) in
      let r = prim_reference name (List.map copy_value args) in
      if c <> r then QCheck.Test.fail_reportf "compiled %S@.reference %S" c r;
      true)

let test_prim_table_complete () =
  List.iter
    (fun name ->
      if Prims.find name = None then
        Alcotest.failf "%s is known but has no implementation" name)
    Prims.known;
  Alcotest.(check int) "no name is listed twice"
    (List.length Prims.known)
    (List.length (List.sort_uniq String.compare Prims.known));
  (* the reverse: whatever has an implementation is known, by both views *)
  List.iter
    (fun name ->
      let known = List.mem name Prims.known in
      Alcotest.(check bool) (name ^ " implemented iff known") known
        (Prims.find name <> None);
      Alcotest.(check bool) (name ^ " is_known iff known") known
        (Prims.is_known name))
    ("no_such_prim" :: "list_empty" :: "" :: "Concat" :: Prims.known)

(* --- hooks: the same deliveries and context state on both engines ---

   Hook 0 fires from two functions (two frame layouts) and captures an
   immutable int, a string, a map holding bytes, a bytes buffer and a
   variable that is never bound; hook 1 captures a variable bound only on
   a branch not taken; hook 2 has no context unit (the context ignores
   it); hook 3 is never registered. *)

let hook_prog =
  let hook id = { node = Hook id; loc = Loc.dummy } in
  B.program "hooks"
    ~funcs:
      [
        B.func "g" ~params:[ "b" ]
          [
            B.let_ "m" (B.prim "map_put" [ B.prim "map_empty" []; B.s "k"; B.v "b" ]);
            hook 0;
            B.return_unit;
          ];
        B.func "f" ~params:[]
          [
            B.let_ "n" (B.i 1);
            B.let_ "s" (B.s "x");
            B.let_ "b" (B.prim "bytes_of_str" [ B.s "ab" ]);
            hook 0;
            B.if_ (B.bconst false) [ B.let_ "u" (B.i 9) ] [];
            hook 1;
            hook 3;
            B.let_ "i" (B.i 0);
            B.while_
              B.(v "i" <: i 3)
              [
                B.assign "n" B.(v "n" +: v "i");
                B.let_ "m"
                  (B.prim "map_put" [ B.prim "map_empty" []; B.s "k"; B.v "b" ]);
                hook 0;
                B.compute_us 7;
                B.call "g" [ B.prim "bytes_of_str" [ B.v "s" ] ];
                hook 2;
                B.assign "s" B.(v "s" ^: s "y");
                B.assign "i" B.(v "i" +: i 1);
              ];
            B.sleep_ms 1;
            hook 1;
            B.return_unit;
          ];
      ]
    ~entries:[]

let run_hooks () =
  let sched = Sched.create ~seed:5 () in
  let reg = Wd_env.Faultreg.create () in
  let res = Randgen.make_env ~reg ~seed:5 in
  let main = Interp.create ~node:"n1" ~res hook_prog in
  let spec vars = { Interp.hook_checker = "u"; hook_vars = vars } in
  Interp.register_hook main ~id:0 (spec [ "n"; "u"; "b"; "s"; "m" ]);
  Interp.register_hook main ~id:1 (spec [ "u"; "s"; "n" ]);
  Interp.register_hook main ~id:2 (spec [ "b" ]);
  let module W = Wd_watchdog.Wcontext in
  let w = W.create () in
  W.register_unit w ~unit_id:"u0" ~params:[ "p_n"; "p_b"; "p_s"; "p_m" ];
  W.register_unit w ~unit_id:"u1" ~params:[ "q_s"; "q_n"; "q_u" ];
  W.bind_hook w ~hook_id:0 ~unit_id:"u0"
    ~captures:[ ("p_n", "n"); ("p_b", "b"); ("p_s", "s"); ("p_m", "m") ];
  W.bind_hook w ~hook_id:1 ~unit_id:"u1"
    ~captures:[ ("q_s", "s"); ("q_n", "n"); ("q_u", "u") ];
  let log = ref [] in
  let render = function None -> "-" | Some v -> value_to_string v in
  Interp.set_hook_sink main (fun id spec ->
      let cap = W.capture w ~hook_id:id ~vars:spec.Interp.hook_vars in
      Some
        (fun vals ->
          log :=
            Fmt.str "%d@%Ld [%s]" id (Sched.now sched)
              (String.concat "; " (Array.to_list (Array.map render vals)))
            :: !log;
          Option.iter (fun c -> W.deliver c ~now:(Sched.now sched) vals) cap));
  ignore (Sched.spawn ~name:"hooks" sched (fun () -> ignore (Interp.call main "f" [])));
  ignore (Sched.run sched);
  let now = Sched.now sched in
  let unit_state u =
    Fmt.str "%s: ready=%b updates=%d staleness=%a snapshot=[%s]" u (W.ready w u)
      (W.updates w u)
      Fmt.(option int64)
      (W.staleness w ~now u)
      (String.concat "; "
         (List.map (fun (p, v) -> p ^ "=" ^ value_to_string v) (W.snapshot w u)))
  in
  List.rev !log @ [ unit_state "u0"; unit_state "u1"; string_of_int (W.total_updates w) ]

let test_hooks_identity () =
  let c = run_hooks () in
  Alcotest.(check (list string)) "hook deliveries and context state"
    (reference run_hooks) c;
  (* twelve fires, then the two units' states and the update total *)
  Alcotest.(check int) "every fire was delivered" 15 (List.length c)

(* --- E2 catalog batch: whole-system results equal the reference ---

   The same batch the bench's jobs curve times: every catalog scenario but
   the crash ones, from cold analysis and compile caches, over the domain
   pool — so the reference seam is exercised on every worker domain. *)

let test_e2_batch_identity () =
  let module Campaign = Wd_harness.Campaign in
  let module Catalog = Wd_faults.Catalog in
  let cells =
    List.filter_map
      (fun s ->
        if s.Catalog.special = Some "crash" then None
        else Some (Campaign.cell s.Catalog.sid))
      Catalog.all
  in
  let cold_batch () =
    Wd_autowatchdog.Generate.clear_cache ();
    Interp.clear_compile_cache ();
    Campaign.run_batch cells
  in
  let compiled = cold_batch () in
  let walked = reference cold_batch in
  Alcotest.(check int) "batch size" (List.length cells) (List.length compiled);
  Alcotest.(check bool) "E2 catalog batch equals the reference" true
    (compiled = walked)

let () =
  Alcotest.run "engine_diff"
    [
      ( "differential",
        [
          Alcotest.test_case
            (Fmt.str "%d random programs trace-identical on both engines"
               n_seeds)
            `Slow test_randprog_traces;
          Alcotest.test_case "violation payloads byte-identical" `Quick
            test_error_payloads;
          Alcotest.test_case
            (Fmt.str
               "%d programs trace-identical under redefinition-after-compile"
               n_redef_seeds)
            `Slow test_ic_invalidation_traces;
          Alcotest.test_case "frame pool reused across iterated calls" `Quick
            test_frame_pool_reuse;
          Alcotest.test_case "deep recursion parity (500 frames)" `Quick
            test_deep_recursion_parity;
          Alcotest.test_case "E17 byte-identical across engines" `Slow
            test_e17_engine_identity;
          Alcotest.test_case "E2 catalog batch identical to the reference"
            `Slow test_e2_batch_identity;
          Alcotest.test_case "E22 load table identical to the reference"
            `Slow test_e22_load_identity;
          Alcotest.test_case "E18 and E19 fleets identical to the reference"
            `Slow test_fleets_identity;
          Alcotest.test_case "hook deliveries identical to the reference"
            `Quick test_hooks_identity;
        ] );
      ( "prims",
        [
          QCheck_alcotest.to_alcotest prop_prims_compiled_equal_apply;
          Alcotest.test_case "every known primitive implemented, and only \
             those" `Quick test_prim_table_complete;
        ] );
    ]
