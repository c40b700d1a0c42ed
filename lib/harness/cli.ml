(* Shared campaign-wide CLI flags. Both front ends take the same two
   knobs — [--jobs] (domain-pool width) and [--seed] (base seed) — and
   must apply them identically:
   `bin/repro` through cmdliner terms, `bench` through a hand-rolled argv
   scan (bechamel owns its argv, so bench cannot run a cmdliner parser).
   Keeping both faces in one module keeps the flags' names, parsing and
   application from drifting apart. *)

open Cmdliner

(* --- cmdliner terms (repro) ------------------------------------------- *)

(* Domain-pool width for the parallel campaign engine. Tables are
   byte-identical at any width; the flag only changes wall-clock. *)
let jobs_arg =
  let doc =
    "Fan simulations out over $(docv) domains (default: \\$WD_JOBS or the \
     host's recommended domain count). Results are identical at any width."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let apply_jobs = function Some n -> Experiments.set_jobs n | None -> ()

(* Base seed for experiments that fan out over seed lists (default 42).
   Results are a pure function of the seed, independent of --jobs. *)
let seed_arg =
  let doc = "Base seed for seed-fanned experiments (default 42)." in
  Arg.(value & opt (some int) None & info [ "seed"; "s" ] ~docv:"S" ~doc)

let apply_seed = function Some s -> Experiments.set_seed s | None -> ()

(* --- plain argv scan (bench) ------------------------------------------- *)

type opts = { o_jobs : int option; o_seed : int option }

let no_opts = { o_jobs = None; o_seed = None }

(* Pick the shared flags out of an argv tail, leaving everything else
   (e.g. bench's [--json]) alone; only a malformed value is an error. *)
let scan argv =
  let rec go acc = function
    | [] -> Ok acc
    | "--jobs" :: v :: rest | "-j" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n > 0 -> go { acc with o_jobs = Some n } rest
        | Some _ | None -> Error (Fmt.str "bad --jobs value %S" v))
    | "--seed" :: v :: rest | "-s" :: v :: rest -> (
        match int_of_string_opt v with
        | Some s -> go { acc with o_seed = Some s } rest
        | None -> Error (Fmt.str "bad --seed value %S" v))
    | _ :: rest -> go acc rest
  in
  go no_opts argv

let apply_opts o =
  apply_jobs o.o_jobs;
  apply_seed o.o_seed
