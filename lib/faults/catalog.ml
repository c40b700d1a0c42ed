(* Gray-failure catalog: named, reproducible failure scenarios for each
   target system, with ground truth (failing function, failure class) and
   the paper's prediction of which detector classes should catch them.

   Classes follow the failures the paper cites: partial disk faults (IRON),
   fail-slow hardware, limplock, state corruption, crash, resource leaks,
   silently stuck background tasks, and transient errors. *)

type fclass =
  | Crash
  | Partial_disk
  | Fail_slow
  | Limplock
  | Net_hang
  | Corruption
  | Resource_leak
  | Silent_stuck
  | Deadlock
  | Infinite_loop
  | Transient_error

let fclass_name = function
  | Crash -> "crash"
  | Partial_disk -> "partial-disk"
  | Fail_slow -> "fail-slow"
  | Limplock -> "limplock"
  | Net_hang -> "net-hang"
  | Corruption -> "corruption"
  | Resource_leak -> "resource-leak"
  | Silent_stuck -> "silent-stuck"
  | Deadlock -> "deadlock"
  | Infinite_loop -> "infinite-loop"
  | Transient_error -> "transient-error"

(* A fault spec active from the injection instant. *)
type fspec = {
  site_pattern : string;
  behaviour : Wd_env.Faultreg.behaviour;
  duration : int64;     (* Time.never for unbounded *)
  once : bool;
}

let fspec ?(duration = Wd_sim.Time.never) ?(once = false) site_pattern
    behaviour =
  { site_pattern; behaviour; duration; once }

(* Expected detection per detector class — the qualitative claims of
   Tables 1 and 2 that experiment E1/E2 test empirically. *)
type expectation = {
  exp_mimic : bool;
  exp_probe : bool;
  exp_signal : bool;
  exp_heartbeat : bool;
  exp_observer : bool;
}

type scenario = {
  sid : string;
  description : string;
  system : string;   (* kvs | zkmini | dfsmini | cstore *)
  fclass : fclass;
  faults : fspec list;
  special : string option;  (* "leak_bug" boot variant, "crash" kill, ... *)
  truth_func : string option; (* function containing the failing operation *)
  expected : expectation;
}

let exp ?(mimic = false) ?(probe = false) ?(signal = false) ?(heartbeat = false)
    ?(observer = false) () =
  {
    exp_mimic = mimic;
    exp_probe = probe;
    exp_signal = signal;
    exp_heartbeat = heartbeat;
    exp_observer = observer;
  }

let kvs_scenarios =
  [
    {
      sid = "kvs-flush-hang";
      description = "segment flush blocks on a wedged disk region";
      system = "kvs";
      fclass = Partial_disk;
      faults = [ fspec "disk:kvs.disk:write:seg/*" Wd_env.Faultreg.Hang ];
      special = None;
      truth_func = Some "flush_segment";
      (* Client path (wal, index) untouched: only the intrinsic watchdog
         sees it. *)
      expected = exp ~mimic:true ();
    };
    {
      sid = "kvs-disk-slow";
      description = "fail-slow disk: every I/O 80x slower";
      system = "kvs";
      fclass = Fail_slow;
      faults = [ fspec "disk:kvs.disk:*" (Wd_env.Faultreg.Slow_factor 80.) ];
      special = None;
      truth_func = None;
      (* clients still succeed (slowly), so the observer stays quiet; the
         adaptive mimic baseline and the probe's latency shift both fire *)
      expected = exp ~mimic:true ~probe:true ();
    };
    {
      sid = "kvs-wal-error";
      description = "WAL device returns errors; listener thread dies";
      system = "kvs";
      fclass = Partial_disk;
      faults =
        [ fspec "disk:kvs.disk:append:wal/*" (Wd_env.Faultreg.Error "EIO") ];
      special = None;
      truth_func = Some "handle_set";
      expected = exp ~mimic:true ~probe:true ~observer:true ();
    };
    {
      sid = "kvs-replication-hang";
      description = "replication link to follower blocks the sender";
      system = "kvs";
      fclass = Net_hang;
      faults = [ fspec "net:kvs.net:send:kvs1:kvs2" Wd_env.Faultreg.Hang ];
      special = None;
      truth_func = Some "replicate";
      expected = exp ~mimic:true ~probe:true ~observer:true ();
    };
    {
      sid = "kvs-seg-corrupt";
      description = "silent bit corruption on segment writes";
      system = "kvs";
      fclass = Corruption;
      faults = [ fspec "disk:kvs.disk:write:seg/*" Wd_env.Faultreg.Corrupt ];
      special = None;
      truth_func = Some "flush_segment";
      expected = exp ~mimic:true ();
    };
    {
      sid = "kvs-mem-leak";
      description = "request buffers leak; allocation pauses grow";
      system = "kvs";
      fclass = Resource_leak;
      faults = [];
      special = Some "leak_bug";
      truth_func = Some "handle_set";
      expected = exp ~mimic:true ~probe:true ~signal:true ();
    };
    {
      sid = "kvs-deadlock";
      description =
        "AB/BA lock cycle between the listener and the flusher wedges both; \
         heartbeats keep flowing";
      system = "kvs";
      fclass = Deadlock;
      faults = [];
      special = Some "deadlock_bug";
      (* either side of the cycle is a correct localisation; the flusher's
         critical section is the one the try-lock checkers reach first *)
      truth_func = Some "flush_once";
      (* client writes hang: probes and observers see it, heartbeats never
         do, and the try-lock mimic checkers pinpoint the cycle *)
      expected = exp ~mimic:true ~probe:true ~observer:true ();
    };
    {
      sid = "kvs-crash";
      description = "whole-process crash (fail-stop)";
      system = "kvs";
      fclass = Crash;
      faults = [];
      special = Some "crash";
      truth_func = None;
      (* The intrinsic watchdog — and the probe/signal checkers co-located in
         its driver — die with the process; only the extrinsic heartbeat FD
         and the client-side observers survive: Table 1's isolation
         argument. *)
      expected = exp ~heartbeat:true ~observer:true ();
    };
  ]

let zk_scenarios =
  [
    {
      sid = "zk-2201";
      description =
        "ZOOKEEPER-2201: remote sync blocks in commit critical section; \
         heartbeats and admin command still answer";
      system = "zkmini";
      fclass = Net_hang;
      faults = [ fspec "net:zk.net:send:zkL:zkF1" Wd_env.Faultreg.Hang ];
      special = None;
      truth_func = Some "commit_txn";
      (* heartbeats and the admin ruok probe stay blind (the paper's point);
         a client *write* probe and the observers do see the stall *)
      expected = exp ~mimic:true ~probe:true ~observer:true ();
    };
    {
      sid = "zk-snap-slow";
      description = "snapshot device is fail-slow";
      system = "zkmini";
      fclass = Fail_slow;
      faults =
        [ fspec "disk:zk.disk:write:snapshot/*" (Wd_env.Faultreg.Slow_factor 400.) ];
      special = None;
      truth_func = Some "serialize_node";
      (* snapshots run inside the sync pipeline, so write probes stall too *)
      expected = exp ~mimic:true ~probe:true ();
    };
    {
      sid = "zk-txnlog-error";
      description = "txn log returns EIO; sync thread dies";
      system = "zkmini";
      fclass = Partial_disk;
      faults =
        [ fspec "disk:zk.disk:append:txnlog/*" (Wd_env.Faultreg.Error "EIO") ];
      special = None;
      truth_func = Some "commit_txn";
      expected = exp ~mimic:true ~probe:true ~observer:true ();
    };
  ]

let dfs_scenarios =
  [
    {
      sid = "dfs-block-corrupt";
      description = "silent corruption on block writes";
      system = "dfsmini";
      fclass = Corruption;
      faults = [ fspec "disk:dfs.disk:write:blk/*" Wd_env.Faultreg.Corrupt ];
      special = None;
      truth_func = Some "write_block";
      expected = exp ~mimic:true ~probe:true ();
    };
    {
      sid = "dfs-meta-hang";
      description = "metadata directory wedges; receiver blocks mid-write";
      system = "dfsmini";
      fclass = Partial_disk;
      faults = [ fspec "disk:dfs.disk:write:meta/*" Wd_env.Faultreg.Hang ];
      special = None;
      truth_func = Some "write_block";
      expected = exp ~mimic:true ~probe:true ~observer:true ();
    };
    {
      sid = "dfs-scan-transient";
      description =
        "transient block-read errors during the directory scan, absorbed by \
         the scanner's error handler";
      system = "dfsmini";
      fclass = Transient_error;
      faults =
        [
          fspec ~duration:(Wd_sim.Time.sec 6) "disk:dfs.disk:read:blk/*"
            (Wd_env.Faultreg.Error "EIO (transient)");
        ];
      special = None;
      truth_func = Some "scan_once";
      (* the probe's block read trips over the same transient errors *)
      expected = exp ~mimic:true ~probe:true ();
    };
    {
      sid = "dfs-limplock";
      description = "limplock: disk degrades 200x but never fails";
      system = "dfsmini";
      fclass = Limplock;
      faults = [ fspec "disk:dfs.disk:*" (Wd_env.Faultreg.Slow_factor 200.) ];
      special = None;
      truth_func = None;
      (* requests still complete within client timeouts: observers quiet *)
      expected = exp ~mimic:true ~probe:true ();
    };
  ]

let cs_scenarios =
  [
    {
      sid = "cs-compaction-stuck";
      description =
        "SSTable compaction silently stuck on a read hang; reads and writes \
         keep succeeding";
      system = "cstore";
      fclass = Silent_stuck;
      faults = [ fspec "disk:cs.disk:read:sst/*" Wd_env.Faultreg.Hang ];
      special = None;
      truth_func = Some "compact_once";
      expected = exp ~mimic:true ();
    };
    {
      sid = "cs-compaction-spin";
      description =
        "compaction spins forever on a stale condition: no operation fails, \
         no lock is held — only the progress (context-staleness) checkers \
         notice the region stopped advancing";
      system = "cstore";
      fclass = Infinite_loop;
      faults = [];
      special = Some "spin_bug";
      truth_func = Some "compact_once";
      expected = exp ~mimic:true ();
    };
    {
      sid = "cs-commitlog-error";
      description = "commit log append fails; write thread dies";
      system = "cstore";
      fclass = Partial_disk;
      faults =
        [ fspec "disk:cs.disk:append:commitlog/*" (Wd_env.Faultreg.Error "EIO") ];
      special = None;
      truth_func = Some "do_write";
      expected = exp ~mimic:true ~probe:true ~observer:true ();
    };
    {
      sid = "cs-sst-transient";
      description = "transient read errors during compaction (handled ones)";
      system = "cstore";
      fclass = Transient_error;
      faults =
        [
          fspec ~duration:(Wd_sim.Time.sec 4) "disk:cs.disk:read:sst/*"
            (Wd_env.Faultreg.Error "EAGAIN");
        ];
      special = None;
      truth_func = Some "compact_once";
      expected = exp ~mimic:true ();
    };
  ]

let mq_scenarios =
  [
    {
      sid = "mq-cleaner-stuck";
      description =
        "retention cleaner wedges on segment deletion; producers and \
         consumers keep succeeding while the partition grows unbounded";
      system = "mqbroker";
      fclass = Silent_stuck;
      faults = [ fspec "disk:mq.disk:delete:part0/*" Wd_env.Faultreg.Hang ];
      special = None;
      truth_func = Some "clean_once";
      expected = exp ~mimic:true ();
    };
    {
      sid = "mq-consumer-link-hang";
      description =
        "the consumer delivery link blocks the sender; producers are \
         unaffected, consumers silently starve";
      system = "mqbroker";
      fclass = Net_hang;
      faults = [ fspec "net:mq.net:send:mq1:consumer1" Wd_env.Faultreg.Hang ];
      special = None;
      truth_func = Some "deliver_once";
      expected = exp ~mimic:true ();
    };
    {
      sid = "mq-log-corrupt";
      description = "silent corruption on partition-log appends";
      system = "mqbroker";
      fclass = Corruption;
      faults = [ fspec "disk:mq.disk:append:part0/*" Wd_env.Faultreg.Corrupt ];
      special = None;
      truth_func = Some "handle_produce";
      expected = exp ~mimic:true ();
    };
    {
      sid = "mq-disk-slow";
      description = "fail-slow partition disk (100x); client latencies stay \
                     within timeouts";
      system = "mqbroker";
      fclass = Fail_slow;
      faults = [ fspec "disk:mq.disk:*" (Wd_env.Faultreg.Slow_factor 100.) ];
      special = None;
      truth_func = None;
      (* the probe's learned latency baseline also shifts *)
      expected = exp ~mimic:true ~probe:true ();
    };
  ]

let all =
  kvs_scenarios @ zk_scenarios @ dfs_scenarios @ cs_scenarios @ mq_scenarios

let find sid =
  match List.find_opt (fun s -> s.sid = sid) all with
  | Some s -> s
  | None -> invalid_arg (Fmt.str "Catalog.find: unknown scenario %s" sid)

(* Materialise the scenario's fault specs into registry faults anchored at
   [at]. Returns the injected fault ids. *)
let inject reg scenario ~at =
  List.mapi
    (fun i f ->
      let id = Fmt.str "%s#%d" scenario.sid i in
      Wd_env.Faultreg.inject reg
        {
          Wd_env.Faultreg.id;
          site_pattern = f.site_pattern;
          behaviour = f.behaviour;
          start_at = at;
          stop_at =
            (if f.duration = Wd_sim.Time.never then Wd_sim.Time.never
             else Int64.add at f.duration);
          once = f.once;
        };
      id)
    scenario.faults

let pp_scenario ppf s =
  Fmt.pf ppf "%-22s %-9s %-12s %s" s.sid s.system (fclass_name s.fclass)
    s.description
