(* Allocation budgets for the simulation's wait paths, shared by the sim
   and env tests.

   [words_per_iter spawn] builds a fresh scheduler (seed 1), lets [spawn]
   add the tasks of one pattern, and runs it. The measuring task calls
   [mark i] at iteration [i] of [0 .. 2 * n]: the readings at [n] and [2n]
   bound [n] measured iterations, after [n] warm-up ones that grow every
   buffer the pattern touches (run queue, timer lanes, cond rings). The
   simulation is deterministic, so the figure repeats exactly. *)

let n = 1_000

let words_per_iter spawn =
  let s = Wd_sim.Sched.create ~seed:1 () in
  (* a flat float array stores the readings unboxed, so taking them
     allocates nothing inside the window *)
  let marks = Array.make 2 0. and finished = ref false in
  let mark i =
    if i = n then marks.(0) <- Gc.minor_words ()
    else if i = 2 * n then begin
      marks.(1) <- Gc.minor_words ();
      finished := true
    end
  in
  spawn s mark;
  ignore (Wd_sim.Sched.run s);
  (* a task that fails ends the run early, without raising here *)
  if not !finished then Alcotest.fail "the pattern stopped before its last mark";
  (marks.(1) -. marks.(0)) /. float_of_int n

(* Whole words: the world drifts a little over the window (a per-link
   delivery tie, say), which can leave a few words over a thousand
   iterations. *)
let check what ~budget words =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.3f words/iter <= %d" what words budget)
    true
    (Float.round words <= float_of_int budget)
