(* Tests for the IR: primitives, builder + validator, pretty printer, and
   the interpreter in both main and checker modes. *)

open Wd_ir
open Ast
module B = Builder
module Sched = Wd_sim.Sched
module Time = Wd_sim.Time

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let vint = function VInt i -> i | v -> Alcotest.failf "not an int: %a" pp_value v
let vstr = function VStr s -> s | v -> Alcotest.failf "not a string: %a" pp_value v

(* --- prims --- *)

let p = Prims.apply

let test_prims_strings () =
  check_str "str_of_int" "42" (vstr (p "str_of_int" [ VInt 42 ]));
  check_int "int_of_str" 17 (vint (p "int_of_str" [ VStr "17" ]));
  check_str "concat" "a/b" (vstr (p "concat" [ VStr "a"; VStr "/"; VStr "b" ]));
  check "contains yes" true (p "contains" [ VStr "hello"; VStr "ell" ] = VBool true);
  check "contains no" true (p "contains" [ VStr "hello"; VStr "xyz" ] = VBool false);
  check_str "str_drop" "cd" (vstr (p "str_drop" [ VStr "abcd"; VInt 2 ]));
  check_str "str_take" "ab" (vstr (p "str_take" [ VStr "abcd"; VInt 2 ]));
  check_str "dirname" "a/b/" (vstr (p "dirname" [ VStr "a/b/c" ]));
  check_str "dirname flat" "" (vstr (p "dirname" [ VStr "nofile" ]))

let test_prims_bytes () =
  let b = p "bytes_of_str" [ VStr "xy" ] in
  check_str "roundtrip" "xy" (vstr (p "str_of_bytes" [ b ]));
  (match p "bytes_make" [ VInt 3; VStr "z" ] with
  | VBytes bb -> check_str "filled" "zzz" (Bytes.to_string bb)
  | _ -> Alcotest.fail "bytes_make");
  let cat = p "bytes_cat" [ p "bytes_of_str" [ VStr "a" ]; p "bytes_of_str" [ VStr "b" ] ] in
  check_str "cat" "ab" (vstr (p "str_of_bytes" [ cat ]));
  check "checksum equal" true
    (p "checksum" [ b ] = p "checksum" [ p "bytes_of_str" [ VStr "xy" ] ]);
  check "checksum differs" false
    (p "checksum" [ b ] = p "checksum" [ p "bytes_of_str" [ VStr "yx" ] ])

let test_prims_maps () =
  let m = p "map_put" [ p "map_empty" []; VStr "k"; VInt 1 ] in
  check_int "get" 1 (vint (p "map_get" [ m; VStr "k" ]));
  check "mem" true (p "map_mem" [ m; VStr "k" ] = VBool true);
  check_int "len" 1 (vint (p "map_len" [ m ]));
  check_int "get_opt default" 9 (vint (p "map_get_opt" [ m; VStr "x"; VInt 9 ]));
  let m2 = p "map_del" [ m; VStr "k" ] in
  check "deleted" true (p "map_mem" [ m2; VStr "k" ] = VBool false);
  (* overwrite keeps a single entry *)
  let m3 = p "map_put" [ m; VStr "k"; VInt 2 ] in
  check_int "overwrite len" 1 (vint (p "map_len" [ m3 ]));
  check_int "overwrite val" 2 (vint (p "map_get" [ m3; VStr "k" ]))

let test_prims_lists () =
  let l = VList [ VInt 1; VInt 2; VInt 3 ] in
  check_int "head" 1 (vint (p "list_head" [ l ]));
  check "tail" true (p "list_tail" [ l ] = VList [ VInt 2; VInt 3 ]);
  check_int "nth" 3 (vint (p "list_nth" [ l; VInt 2 ]));
  check "mem" true (p "list_mem" [ VInt 2; l ] = VBool true);
  check "rev" true (p "list_rev" [ l ] = VList [ VInt 3; VInt 2; VInt 1 ]);
  check "range" true (p "range" [ VInt 3 ] = VList [ VInt 0; VInt 1; VInt 2 ]);
  check "sorted yes" true
    (p "is_sorted" [ VList [ VStr "a"; VStr "b" ] ] = VBool true);
  check "sorted no" true
    (p "is_sorted" [ VList [ VStr "b"; VStr "a" ] ] = VBool false)

let test_prims_errors () =
  (match p "list_head" [ VList [] ] with
  | _ -> Alcotest.fail "expected Prim_error"
  | exception Prims.Prim_error _ -> ());
  match p "no_such_prim" [] with
  | _ -> Alcotest.fail "expected Prim_error"
  | exception Prims.Prim_error _ -> ()

let prop_map_put_get =
  QCheck.Test.make ~name:"map_put then map_get returns the value" ~count:100
    QCheck.(pair (small_list (pair small_string small_int)) (pair small_string small_int))
    (fun (seeds, (k, v)) ->
      let m =
        List.fold_left
          (fun m (k, v) -> p "map_put" [ m; VStr k; VInt v ])
          (p "map_empty" []) seeds
      in
      let m = p "map_put" [ m; VStr k; VInt v ] in
      p "map_get" [ m; VStr k ] = VInt v)

let prop_copy_value_equal =
  QCheck.Test.make ~name:"copy_value is equal but does not share bytes" ~count:50
    QCheck.small_string
    (fun s ->
      let v = VMap [ ("b", VBytes (Bytes.of_string s)); ("l", VList [ VInt 1 ]) ] in
      let c = copy_value v in
      let equal_before = value_equal v c in
      (match (v, s) with
      | VMap (("b", VBytes orig) :: _), _ when String.length s > 0 ->
          Bytes.set orig 0 (if Bytes.get orig 0 = '!' then '?' else '!')
      | _ -> ());
      let independent =
        String.length s = 0 || not (value_equal v c)
      in
      equal_before && independent)

(* The Format-based printer the Buffer renderer replaced, kept verbatim as
   the reference: value_to_string must stay byte-for-byte equal to it. *)
let rec pp_value_ref ppf = function
  | VUnit -> Fmt.string ppf "()"
  | VBool b -> Fmt.bool ppf b
  | VInt i -> Fmt.int ppf i
  | VStr s -> Fmt.pf ppf "%S" s
  | VBytes b ->
      if Bytes.length b <= 16 then Fmt.pf ppf "bytes%S" (Bytes.to_string b)
      else Fmt.pf ppf "bytes<%d>" (Bytes.length b)
  | VList vs -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any "; ") pp_value_ref) vs
  | VPair (a, b) -> Fmt.pf ppf "(%a, %a)" pp_value_ref a pp_value_ref b
  | VMap kvs ->
      Fmt.pf ppf "{%a}"
        Fmt.(
          list ~sep:(any ", ") (fun ppf (k, v) ->
              Fmt.pf ppf "%s=%a" k pp_value_ref v))
        kvs

let gen_value =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [
              return VUnit;
              map (fun b -> VBool b) bool;
              map (fun i -> VInt i) int;
              map (fun s -> VStr s) string_small;
              map (fun s -> VBytes (Bytes.of_string s)) (string_size (0 -- 24));
            ]
        in
        if n <= 0 then leaf
        else
          oneof
            [
              leaf;
              map (fun vs -> VList vs) (list_size (0 -- 4) (self (n / 2)));
              map2 (fun a b -> VPair (a, b)) (self (n / 2)) (self (n / 2));
              map
                (fun kvs -> VMap kvs)
                (list_size (0 -- 4)
                   (pair string_small (self (n / 2))));
            ]))

let prop_render_matches_reference =
  QCheck.Test.make ~name:"render_value is byte-identical to the Format printer"
    ~count:500
    (QCheck.make ~print:value_to_string gen_value)
    (fun v -> String.equal (value_to_string v) (Fmt.str "%a" pp_value_ref v))

let prop_value_immutable_sound =
  QCheck.Test.make
    ~name:"value_immutable is false exactly when a VBytes is reachable"
    ~count:300
    (QCheck.make ~print:value_to_string gen_value)
    (fun v ->
      let rec has_bytes = function
        | VBytes _ -> true
        | VUnit | VBool _ | VInt _ | VStr _ -> false
        | VList vs -> List.exists has_bytes vs
        | VPair (a, b) -> has_bytes a || has_bytes b
        | VMap kvs -> List.exists (fun (_, x) -> has_bytes x) kvs
      in
      value_immutable v = not (has_bytes v))

(* --- builder + validator --- *)

let valid_prog =
  B.program "t"
    ~funcs:
      [
        B.func "main" ~params:[]
          [
            B.let_ "x" (B.i 1);
            B.call ~bind:"y" "double" [ B.v "x" ];
            B.assert_ B.(v "y" =: i 2) "double";
            B.return_unit;
          ];
        B.func "double" ~params:[ "n" ] [ B.return B.(v "n" *: i 2) ];
      ]
    ~entries:[ B.entry "e" "main" ]

let test_validate_accepts () = Validate.check_exn valid_prog

let expect_invalid prog =
  match Validate.check prog with
  | Ok () -> Alcotest.fail "expected validation failure"
  | Error problems -> check "has problems" true (problems <> [])

let test_validate_unbound_var () =
  expect_invalid
    (B.program "t"
       ~funcs:[ B.func "f" ~params:[] [ B.return (B.v "ghost") ] ]
       ~entries:[])

let test_validate_undefined_call () =
  expect_invalid
    (B.program "t"
       ~funcs:[ B.func "f" ~params:[] [ B.call "nowhere" [] ] ]
       ~entries:[])

let test_validate_arity () =
  expect_invalid
    (B.program "t"
       ~funcs:
         [
           B.func "f" ~params:[] [ B.call "g" [ B.i 1 ] ];
           B.func "g" ~params:[ "a"; "b" ] [ B.return_unit ];
         ]
       ~entries:[])

let test_validate_unknown_prim () =
  expect_invalid
    (B.program "t"
       ~funcs:[ B.func "f" ~params:[] [ B.let_ "x" (B.prim "made_up" []) ] ]
       ~entries:[])

let test_validate_duplicate_func () =
  expect_invalid
    (B.program "t"
       ~funcs:[ B.func "f" ~params:[] []; B.func "f" ~params:[] [] ]
       ~entries:[])

let test_validate_bad_entry () =
  expect_invalid
    (B.program "t" ~funcs:[ B.func "f" ~params:[ "x" ] [] ]
       ~entries:[ B.entry "e" "f" (* arity mismatch: no args *) ])

let test_locs_unique () =
  let uids = ref [] in
  let rec collect block =
    List.iter
      (fun st ->
        uids := Loc.uid st.loc :: !uids;
        match st.node with
        | If (_, t, e) -> collect t; collect e
        | While (_, b) | Foreach (_, _, b) | Sync (_, b) -> collect b
        | Try (b, _, h) -> collect b; collect h
        | Let _ | Assign _ | Op _ | Call _ | Return _ | Assert _ | Compute _
        | Hook _ -> ())
      block
  in
  List.iter (fun f -> collect f.body) valid_prog.funcs;
  let sorted = List.sort_uniq compare !uids in
  check_int "all unique" (List.length !uids) (List.length sorted);
  check "all assigned" true (List.for_all (fun u -> u >= 0) !uids)

let test_pp_smoke () =
  let text = Pp.program_to_string valid_prog in
  check "mentions function" true (String.length text > 0);
  let f = find_func valid_prog "double" in
  let ftext = Pp.func_to_string f in
  check "has return" true
    (let found = ref false in
     String.iteri (fun i _ ->
         if i + 6 <= String.length ftext && String.sub ftext i 6 = "return" then
           found := true) ftext;
     !found)

(* --- interpreter --- *)

let run_main ?(globals = []) ?entries prog f =
  let s = Sched.create ~seed:4 () in
  let reg = Wd_env.Faultreg.create () in
  let rng = Wd_sim.Rng.create ~seed:5 in
  let res = Runtime.create ~reg ~rng in
  Runtime.add_disk res (Wd_env.Disk.create ~reg ~rng:(Wd_sim.Rng.split rng) "d");
  Runtime.add_net res (Wd_env.Net.create ~reg ~rng:(Wd_sim.Rng.split rng) "n");
  Runtime.add_mem res (Wd_env.Memory.create ~reg ~capacity:10_000 "m");
  List.iter (fun (k, v) -> Runtime.set_global res k v) globals;
  let main = Interp.create ~node:"node1" ~res prog in
  let failed = ref None in
  ignore
    (Sched.spawn ~name:"test" s (fun () ->
         try f s res main with e -> failed := Some e));
  (match entries with
  | Some es -> ignore (Interp.start ~entries:es main s)
  | None -> ());
  ignore (Sched.run ~until:(Time.sec 60) s);
  match !failed with Some e -> raise e | None -> ()

let test_interp_arith_and_calls () =
  let prog =
    B.program "t"
      ~funcs:
        [
          B.func "fib" ~params:[ "n" ]
            [
              B.if_ B.(v "n" <=: i 1)
                [ B.return (B.v "n") ]
                [
                  B.call ~bind:"a" "fib" [ B.(v "n" -: i 1) ];
                  B.call ~bind:"b" "fib" [ B.(v "n" -: i 2) ];
                  B.return B.(v "a" +: v "b");
                ];
            ];
        ]
      ~entries:[]
  in
  Validate.check_exn prog;
  run_main prog (fun _s _res main ->
      check_int "fib 10" 55 (vint (Interp.call main "fib" [ VInt 10 ])))

let test_interp_short_circuit () =
  (* (false && 1/0=0) must not evaluate the division *)
  let prog =
    B.program "t"
      ~funcs:
        [
          B.func "f" ~params:[]
            [ B.return B.(bconst false &&: (i 1 /: i 0 =: i 0)) ];
        ]
      ~entries:[]
  in
  run_main prog (fun _s _res main ->
      check "short circuit" true (Interp.call main "f" [] = VBool false))

let test_interp_division_by_zero () =
  let prog =
    B.program "t"
      ~funcs:[ B.func "f" ~params:[] [ B.return B.(i 1 /: i 0) ] ]
      ~entries:[]
  in
  run_main prog (fun _s _res main ->
      match Interp.call main "f" [] with
      | _ -> Alcotest.fail "expected violation"
      | exception Interp.Violation { vkind = "arith"; _ } -> ())

let test_interp_while_foreach () =
  let prog =
    B.program "t"
      ~funcs:
        [
          B.func "sum_to" ~params:[ "n" ]
            [
              B.let_ "acc" (B.i 0);
              B.let_ "i" (B.i 1);
              B.while_ B.(v "i" <=: v "n")
                [ B.assign "acc" B.(v "acc" +: v "i"); B.assign "i" B.(v "i" +: i 1) ];
              B.return (B.v "acc");
            ];
          B.func "sum_list" ~params:[ "l" ]
            [
              B.let_ "acc" (B.i 0);
              B.foreach "x" (B.v "l") [ B.assign "acc" B.(v "acc" +: v "x") ];
              B.return (B.v "acc");
            ];
        ]
      ~entries:[]
  in
  run_main prog (fun _s _res main ->
      check_int "while" 15 (vint (Interp.call main "sum_to" [ VInt 5 ]));
      check_int "foreach" 6
        (vint (Interp.call main "sum_list" [ VList [ VInt 1; VInt 2; VInt 3 ] ])))

let test_interp_assert_violation () =
  let prog =
    B.program "t"
      ~funcs:[ B.func "f" ~params:[] [ B.assert_ (B.bconst false) "must hold" ] ]
      ~entries:[]
  in
  run_main prog (fun _s _res main ->
      match Interp.call main "f" [] with
      | _ -> Alcotest.fail "expected assert violation"
      | exception Interp.Violation { vkind = "assert"; msg; _ } ->
          check_str "message" "must hold" msg)

let test_interp_try_catches_env_errors () =
  let prog =
    B.program "t"
      ~funcs:
        [
          B.func "f" ~params:[]
            [
              B.let_ "caught" (B.s "");
              B.try_
                [ B.disk_read ~bind:"x" ~disk:"d" ~path:(B.s "ghost") () ]
                ~exn:"e"
                ~handler:[ B.assign "caught" (B.v "e") ];
              B.return (B.v "caught");
            ];
        ]
      ~entries:[]
  in
  run_main prog (fun _s _res main ->
      let msg = vstr (Interp.call main "f" []) in
      check "caught io error" true (String.length msg > 0))

let test_interp_state_and_queue_ops () =
  let prog =
    B.program "t"
      ~funcs:
        [
          B.func "writer" ~params:[]
            [
              B.state_set ~global:"g" ~value:(B.i 7);
              B.queue_put ~queue:"q" ~data:(B.s "msg");
              B.return_unit;
            ];
          B.func "reader" ~params:[]
            [
              B.state_get ~bind:"g" ~global:"g";
              B.queue_get ~bind:"m" ~queue:"q" ~timeout_ms:100 ();
              B.return (B.pair (B.v "g") (B.v "m"));
            ];
        ]
      ~entries:[]
  in
  run_main prog (fun _s res main ->
      ignore (Interp.call main "writer" []);
      check_int "global visible" 7 (vint (Runtime.global res "g"));
      match Interp.call main "reader" [] with
      | VPair (VInt 7, VMap kvs) ->
          check "queue ok" true (List.assoc "ok" kvs = VBool true);
          check "payload" true (List.assoc "payload" kvs = VStr "msg")
      | v -> Alcotest.failf "unexpected %a" pp_value v)

let test_interp_net_between_nodes () =
  let prog =
    B.program "t"
      ~funcs:
        [
          B.func "send" ~params:[]
            [ B.net_send ~net:"n" ~dst:(B.s "node2") ~payload:(B.s "hi") ];
          B.func "recv" ~params:[]
            [
              B.net_recv ~bind:"m" ~net:"n" ~timeout_ms:1000 ();
              B.return (B.v "m");
            ];
        ]
      ~entries:[]
  in
  let s = Sched.create ~seed:4 () in
  let reg = Wd_env.Faultreg.create () in
  let rng = Wd_sim.Rng.create ~seed:5 in
  let res = Runtime.create ~reg ~rng in
  let net = Wd_env.Net.create ~reg ~rng:(Wd_sim.Rng.split rng) "n" in
  Runtime.add_net res net;
  Wd_env.Net.register net "node1";
  Wd_env.Net.register net "node2";
  let n1 = Interp.create ~node:"node1" ~res prog in
  let n2 = Interp.create ~node:"node2" ~res prog in
  let got = ref VUnit in
  ignore (Sched.spawn s (fun () -> ignore (Interp.call n1 "send" [])));
  ignore (Sched.spawn s (fun () -> got := Interp.call n2 "recv" []));
  ignore (Sched.run s);
  match !got with
  | VMap kvs ->
      check "ok" true (List.assoc "ok" kvs = VBool true);
      check "src" true (List.assoc "src" kvs = VStr "node1");
      check "payload" true (List.assoc "payload" kvs = VStr "hi")
  | v -> Alcotest.failf "unexpected %a" pp_value v

let test_interp_sync_excludes () =
  let prog =
    B.program "t"
      ~funcs:
        [
          B.func "bump" ~params:[]
            [
              B.sync "lk"
                [
                  B.state_get ~bind:"x" ~global:"x";
                  B.sleep_ms 5;
                  B.state_set ~global:"x" ~value:B.(v "x" +: i 1);
                ];
              B.return_unit;
            ];
        ]
      ~entries:[]
  in
  let s = Sched.create ~seed:4 () in
  let reg = Wd_env.Faultreg.create () in
  let rng = Wd_sim.Rng.create ~seed:5 in
  let res = Runtime.create ~reg ~rng in
  Runtime.set_global res "x" (VInt 0);
  let main = Interp.create ~node:"n1" ~res prog in
  for _ = 1 to 5 do
    ignore (Sched.spawn s (fun () -> ignore (Interp.call main "bump" [])))
  done;
  ignore (Sched.run s);
  (* without the lock the read-sleep-write pattern would lose updates *)
  check_int "no lost updates" 5 (vint (Runtime.global res "x"))

let test_interp_entries_run_as_tasks () =
  let prog =
    B.program "t"
      ~funcs:
        [
          B.func "ticker" ~params:[]
            [
              B.while_true
                [
                  B.sleep_ms 100;
                  B.state_get ~bind:"n" ~global:"ticks";
                  B.state_set ~global:"ticks" ~value:B.(v "n" +: i 1);
                ];
            ];
        ]
      ~entries:[ B.entry "tick" "ticker" ]
  in
  let s = Sched.create ~seed:4 () in
  let reg = Wd_env.Faultreg.create () in
  let rng = Wd_sim.Rng.create ~seed:5 in
  let res = Runtime.create ~reg ~rng in
  Runtime.set_global res "ticks" (VInt 0);
  let main = Interp.create ~node:"n1" ~res prog in
  let tasks = Interp.start main s in
  check_int "one entry task" 1 (List.length tasks);
  ignore (Sched.run ~until:(Time.sec 1) s);
  check "ticked about 10 times" true
    (let n = vint (Runtime.global res "ticks") in
     n >= 9 && n <= 10)

let test_interp_busy_loop_advances_time () =
  (* an infinite pure loop must not freeze the simulation *)
  let prog =
    B.program "t"
      ~funcs:
        [
          B.func "spin" ~params:[]
            [ B.while_true [ B.let_ "x" (B.i 1); B.assign "x" B.(v "x" +: i 1) ] ];
        ]
      ~entries:[ B.entry "spin" "spin" ]
  in
  let s = Sched.create ~seed:4 () in
  let reg = Wd_env.Faultreg.create () in
  let res = Runtime.create ~reg ~rng:(Wd_sim.Rng.create ~seed:5) in
  let main = Interp.create ~node:"n1" ~res prog in
  ignore (Interp.start main s);
  (match Sched.run ~until:(Time.ms 10) s with
  | Sched.Time_limit -> ()
  | _ -> Alcotest.fail "busy loop should hit the time limit, not hang the host");
  check "many statements executed" true (Interp.stmts_executed main > 1000)

let test_interp_pairs () =
  let prog =
    B.program "t"
      ~funcs:
        [
          B.func "swap" ~params:[ "p" ]
            [ B.return (B.pair (B.snd_ (B.v "p")) (B.fst_ (B.v "p"))) ];
        ]
      ~entries:[]
  in
  run_main prog (fun _s _res main ->
      check "swapped" true
        (Interp.call main "swap" [ VPair (VInt 1, VInt 2) ]
        = VPair (VInt 2, VInt 1)))

let test_interp_compute_advances_time () =
  let prog =
    B.program "t"
      ~funcs:[ B.func "work" ~params:[] [ B.compute (Time.ms 7) ] ]
      ~entries:[]
  in
  run_main prog (fun s _res main ->
      let t0 = Sched.now s in
      ignore (Interp.call main "work" []);
      check "charged the modelled CPU" true (Int64.sub (Sched.now s) t0 >= Time.ms 7))

let test_interp_log_op () =
  let prog =
    B.program "t"
      ~funcs:[ B.func "speak" ~params:[] [ B.log (B.s "hello log") ] ]
      ~entries:[]
  in
  run_main prog (fun _s res main ->
      ignore (Interp.call main "speak" []);
      match Runtime.log_lines res with
      | [ (_, node, msg) ] ->
          check_str "node" "node1" node;
          check "message" true (String.length msg > 0)
      | _ -> Alcotest.fail "one log line")

let test_interp_recv_timeout_shape () =
  let prog =
    B.program "t"
      ~funcs:
        [
          B.func "poll" ~params:[]
            [
              B.net_recv ~bind:"m" ~net:"n" ~timeout_ms:20 ();
              B.return (B.v "m");
            ];
          B.func "qpoll" ~params:[]
            [
              B.queue_get ~bind:"m" ~queue:"empty_q" ~timeout_ms:20 ();
              B.return (B.v "m");
            ];
        ]
      ~entries:[]
  in
  let s = Sched.create ~seed:4 () in
  let reg = Wd_env.Faultreg.create () in
  let rng = Wd_sim.Rng.create ~seed:5 in
  let res = Runtime.create ~reg ~rng in
  let net = Wd_env.Net.create ~reg ~rng:(Wd_sim.Rng.split rng) "n" in
  Wd_env.Net.register net "node1";
  Runtime.add_net res net;
  let main = Interp.create ~node:"node1" ~res prog in
  ignore
    (Sched.spawn s (fun () ->
         (match Interp.call main "poll" [] with
         | VMap kvs -> check "net timeout ok=false" true (List.assoc "ok" kvs = VBool false)
         | _ -> Alcotest.fail "net poll");
         match Interp.call main "qpoll" [] with
         | VMap kvs -> check "queue timeout ok=false" true (List.assoc "ok" kvs = VBool false)
         | _ -> Alcotest.fail "queue poll"));
  ignore (Sched.run s)

(* --- checker-mode isolation --- *)

let checker_pair prog =
  let s = Sched.create ~seed:4 () in
  let reg = Wd_env.Faultreg.create () in
  let rng = Wd_sim.Rng.create ~seed:5 in
  let res = Runtime.create ~reg ~rng in
  Runtime.add_disk res (Wd_env.Disk.create ~reg ~rng:(Wd_sim.Rng.split rng) "d");
  Runtime.add_mem res (Wd_env.Memory.create ~reg ~capacity:10_000 "m");
  let main = Interp.create ~node:"n1" ~res prog in
  let chk = Interp.create ~mode:Interp.Checker ~node:"n1" ~res prog in
  (s, reg, res, main, chk)

let test_checker_disk_writes_redirected () =
  let prog =
    B.program "t"
      ~funcs:
        [
          B.func "w" ~params:[]
            [ B.disk_write ~disk:"d" ~path:(B.s "data/f") ~data:(B.prim "bytes_of_str" [ B.s "real" ]) ];
        ]
      ~entries:[]
  in
  let s, _reg, res, main, chk = checker_pair prog in
  ignore
    (Sched.spawn s (fun () ->
         ignore (Interp.call main "w" []);
         (* main wrote the real path *)
         let d = Runtime.disk res "d" in
         check "real path" true (Wd_env.Disk.peek d ~path:"data/f" <> None);
         (* overwrite main data, then run the checker *)
         Wd_env.Disk.poke d ~path:"data/f" (Bytes.of_string "real");
         ignore (Interp.call chk "w" []);
         check_str "main data untouched by checker" "real"
           (Bytes.to_string (Option.get (Wd_env.Disk.peek d ~path:"data/f")));
         check "checker wrote scratch" true
           (Wd_env.Disk.peek d ~path:"__wd/data/f" <> None)));
  ignore (Sched.run s)

let test_checker_state_overlay () =
  let prog =
    B.program "t"
      ~funcs:
        [
          B.func "mutate" ~params:[]
            [ B.state_set ~global:"g" ~value:(B.s "checker-was-here") ];
          B.func "read" ~params:[]
            [ B.state_get ~bind:"g" ~global:"g"; B.return (B.v "g") ];
        ]
      ~entries:[]
  in
  let s, _reg, res, _main, chk = checker_pair prog in
  Runtime.set_global res "g" (VStr "original");
  ignore
    (Sched.spawn s (fun () ->
         ignore (Interp.call chk "mutate" []);
         check_str "main state untouched" "original" (vstr (Runtime.global res "g"));
         (* the checker sees its own overlay *)
         check_str "overlay visible to checker" "checker-was-here"
           (vstr (Interp.call chk "read" []))));
  ignore (Sched.run s)

let test_checker_mem_alloc_released () =
  let prog =
    B.program "t"
      ~funcs:
        [ B.func "a" ~params:[] [ B.mem_alloc ~pool:"m" ~size:(B.i 1000) ] ]
      ~entries:[]
  in
  let s, _reg, res, _main, chk = checker_pair prog in
  ignore
    (Sched.spawn s (fun () ->
         ignore (Interp.call chk "a" []);
         check_int "no leak from checker" 0 (Wd_env.Memory.used (Runtime.mem res "m"))));
  ignore (Sched.run s)

let test_checker_lock_released_after_probe () =
  let prog =
    B.program "t"
      ~funcs:[ B.func "crit" ~params:[] [ B.sync "lk" [ B.compute_us 1 ] ] ]
      ~entries:[]
  in
  let s, _reg, res, _main, chk = checker_pair prog in
  ignore
    (Sched.spawn s (fun () ->
         ignore (Interp.call chk "crit" []);
         check "lock free afterwards" false
           (Wd_sim.Smutex.locked (Runtime.lock res "lk"))));
  ignore (Sched.run s)

let test_checker_lock_timeout_is_liveness_violation () =
  let prog =
    B.program "t"
      ~funcs:[ B.func "crit" ~params:[] [ B.sync "lk" [ B.compute_us 1 ] ] ]
      ~entries:[]
  in
  let s, _reg, res, _main, chk = checker_pair prog in
  ignore
    (Sched.spawn s (fun () ->
         (* wedge the lock from another task forever *)
         Wd_sim.Smutex.lock (Runtime.lock res "lk");
         Sched.sleep (Time.sec 30)));
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep (Time.ms 1);
         match Interp.call chk "crit" [] with
         | _ -> Alcotest.fail "expected liveness violation"
         | exception Interp.Violation { vkind = "liveness"; _ } -> ()));
  ignore (Sched.run s)

let test_checker_queue_put_shadowed () =
  let prog =
    B.program "t"
      ~funcs:[ B.func "push" ~params:[] [ B.queue_put ~queue:"q" ~data:(B.i 9) ] ]
      ~entries:[]
  in
  let s, _reg, res, main, chk = checker_pair prog in
  ignore
    (Sched.spawn s (fun () ->
         ignore (Interp.call main "push" []);
         ignore (Interp.call chk "push" []);
         (* the checker's message went to the shadow queue *)
         check_int "real queue has only main's" 1
           (Wd_sim.Channel.length (Runtime.queue res "q"));
         check_int "shadow queue has the checker's" 1
           (Wd_sim.Channel.length (Runtime.queue res "__wd:q"))));
  ignore (Sched.run s)

let test_checker_net_send_shadowed () =
  let prog =
    B.program "t"
      ~funcs:
        [ B.func "ping" ~params:[] [ B.net_send ~net:"n" ~dst:(B.s "peer") ~payload:(B.s "x") ] ]
      ~entries:[]
  in
  let s = Sched.create ~seed:4 () in
  let reg = Wd_env.Faultreg.create () in
  let rng = Wd_sim.Rng.create ~seed:5 in
  let res = Runtime.create ~reg ~rng in
  let net = Wd_env.Net.create ~reg ~rng:(Wd_sim.Rng.split rng) "n" in
  Wd_env.Net.register net "n1";
  Wd_env.Net.register net "peer";
  Runtime.add_net res net;
  let chk = Interp.create ~mode:Interp.Checker ~node:"n1" ~res prog in
  ignore
    (Sched.spawn s (fun () ->
         ignore (Interp.call chk "ping" []);
         Sched.sleep (Time.ms 10);
         (* nothing in the real peer inbox; the shadow got it *)
         check_int "real inbox untouched" 0 (Wd_env.Net.inbox_length net "peer");
         check_int "shadow inbox" 1 (Wd_env.Net.inbox_length net "__wd:peer")));
  ignore (Sched.run s)

let test_hook_captures_copies () =
  (* hooks deliver deep copies: mutating the captured bytes afterwards must
     not affect what the sink saw *)
  let prog =
    B.program "t"
      ~funcs:
        [
          B.func "f" ~params:[]
            [
              B.let_ "payload" (B.prim "bytes_of_str" [ B.s "AB" ]);
              { node = Hook 0; loc = Loc.dummy };
              B.disk_write ~disk:"d" ~path:(B.s "f") ~data:(B.v "payload");
            ];
        ]
      ~entries:[]
  in
  let s, _reg, _res, main, _chk = checker_pair prog in
  Interp.register_hook main ~id:0
    { Interp.hook_checker = "u"; hook_vars = [ "payload" ] };
  let seen = ref [] in
  Interp.set_hook_sink main (fun id spec ->
      Some
        (fun vals ->
          seen :=
            (id, List.combine spec.Interp.hook_vars (Array.to_list vals))
            :: !seen));
  ignore (Sched.spawn s (fun () -> ignore (Interp.call main "f" [])));
  ignore (Sched.run s);
  match !seen with
  | [ (0, [ ("payload", Some (VBytes b)) ]) ] ->
      check_str "captured value" "AB" (Bytes.to_string b)
  | _ -> Alcotest.fail "hook did not fire exactly once with the payload"

let () =
  Alcotest.run "wd_ir"
    [
      ( "prims",
        [
          Alcotest.test_case "strings" `Quick test_prims_strings;
          Alcotest.test_case "bytes" `Quick test_prims_bytes;
          Alcotest.test_case "maps" `Quick test_prims_maps;
          Alcotest.test_case "lists" `Quick test_prims_lists;
          Alcotest.test_case "errors" `Quick test_prims_errors;
          QCheck_alcotest.to_alcotest prop_map_put_get;
          QCheck_alcotest.to_alcotest prop_copy_value_equal;
          QCheck_alcotest.to_alcotest prop_render_matches_reference;
          QCheck_alcotest.to_alcotest prop_value_immutable_sound;
        ] );
      ( "validate",
        [
          Alcotest.test_case "accepts valid" `Quick test_validate_accepts;
          Alcotest.test_case "unbound var" `Quick test_validate_unbound_var;
          Alcotest.test_case "undefined call" `Quick test_validate_undefined_call;
          Alcotest.test_case "arity" `Quick test_validate_arity;
          Alcotest.test_case "unknown prim" `Quick test_validate_unknown_prim;
          Alcotest.test_case "duplicate func" `Quick test_validate_duplicate_func;
          Alcotest.test_case "bad entry" `Quick test_validate_bad_entry;
          Alcotest.test_case "unique locs" `Quick test_locs_unique;
          Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
        ] );
      ( "interp",
        [
          Alcotest.test_case "arith and calls" `Quick test_interp_arith_and_calls;
          Alcotest.test_case "short circuit" `Quick test_interp_short_circuit;
          Alcotest.test_case "division by zero" `Quick test_interp_division_by_zero;
          Alcotest.test_case "while/foreach" `Quick test_interp_while_foreach;
          Alcotest.test_case "assert violation" `Quick test_interp_assert_violation;
          Alcotest.test_case "try catches env errors" `Quick
            test_interp_try_catches_env_errors;
          Alcotest.test_case "state and queues" `Quick test_interp_state_and_queue_ops;
          Alcotest.test_case "net between nodes" `Quick test_interp_net_between_nodes;
          Alcotest.test_case "sync excludes" `Quick test_interp_sync_excludes;
          Alcotest.test_case "entries as tasks" `Quick test_interp_entries_run_as_tasks;
          Alcotest.test_case "busy loop advances time" `Quick
            test_interp_busy_loop_advances_time;
          Alcotest.test_case "pairs" `Quick test_interp_pairs;
          Alcotest.test_case "compute advances time" `Quick
            test_interp_compute_advances_time;
          Alcotest.test_case "log op" `Quick test_interp_log_op;
          Alcotest.test_case "poll timeout shapes" `Quick
            test_interp_recv_timeout_shape;
        ] );
      ( "checker-mode",
        [
          Alcotest.test_case "disk writes redirected" `Quick
            test_checker_disk_writes_redirected;
          Alcotest.test_case "state overlay" `Quick test_checker_state_overlay;
          Alcotest.test_case "alloc released" `Quick test_checker_mem_alloc_released;
          Alcotest.test_case "lock released" `Quick
            test_checker_lock_released_after_probe;
          Alcotest.test_case "lock timeout is liveness" `Quick
            test_checker_lock_timeout_is_liveness_violation;
          Alcotest.test_case "queue put shadowed" `Quick
            test_checker_queue_put_shadowed;
          Alcotest.test_case "net send shadowed" `Quick
            test_checker_net_send_shadowed;
          Alcotest.test_case "hook captures copies" `Quick test_hook_captures_copies;
        ] );
    ]
