(* Figures 2 and 3, live: run AutoWatchdog's program-logic reduction on
   zkmini's snapshot serialisation chain and print (a) the original code,
   (b) the instrumented code with the inserted context hook, and (c) the
   generated checker in the paper's Figure-3 shape.

     dune exec examples/generate_watchdog.exe *)

module E = Wd_harness.Experiments

let () =
  print_string ((List.find (fun e -> e.E.name = "reduce") E.all).E.render 0)
