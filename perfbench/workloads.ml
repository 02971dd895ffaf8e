(* The benchmark's three workloads.  Each is a whole checkpointing
   simulation through [Rdt_core.Runner]; everything, the crash schedule
   included, is a pure function of the seed.  README.md gives the reason
   for each choice. *)

module Sim_config = Rdt_core.Sim_config

type t = {
  name : string;
  n : int;
  duration : float;
  shards : int;
  protocol : Rdt_protocols.Protocol.t;
  durable : bool;
  ckpt_bytes : int;
  faults : int;  (** seeded crash/repair faults *)
}

let wide =
  {
    name = "wide-n512";
    n = 512;
    duration = 50.0;
    shards = 2;
    protocol = Rdt_protocols.Protocol.fdas;
    durable = false;
    ckpt_bytes = 1;
    faults = 0;
  }

let long =
  {
    name = "long-n64";
    n = 64;
    duration = 3000.0;
    shards = 1;
    protocol = Rdt_protocols.Protocol.fdas;
    durable = false;
    ckpt_bytes = 1;
    faults = 0;
  }

let durable_cas =
  {
    name = "durable-cas";
    n = 16;
    duration = 250.0;
    shards = 1;
    protocol = Rdt_protocols.Protocol.cas;
    durable = true;
    ckpt_bytes = 4096;
    faults = 4;
  }

let all = [ wide; long; durable_cas ]
let find name = List.find_opt (fun w -> w.name = name) all

(* The same shape at a small size, for the benchmark's own tests. *)
let small w = { w with n = 8; duration = Float.min w.duration 60.0 }

(* [k] faults, one in each of [k] equal slices of the middle of the run,
   so no process can crash twice in overlapping windows. *)
let faults ~seed ~n ~duration k =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let slice = duration /. float_of_int (k + 1) in
  List.init k (fun i ->
      let base = slice *. float_of_int (i + 1) in
      {
        Sim_config.crash_at = base +. (Random.State.float rng 0.2 *. slice);
        pid = Random.State.int rng n;
        repair_after = 1.0 +. Random.State.float rng 2.0;
      })

(* The Log_store default config with periodic fsync and auto-compaction
   turned off and segments large enough never to seal during a run.
   Each compaction issues four fsyncs; on a shared disk their latency
   swings about twofold over minutes, which made the default config's
   events_per_s spread 38% across ten seeds.  Appends, CRC framing,
   tombstones, truncations, recovery and the final sync still run. *)
let store_config =
  {
    Rdt_store.Log_store.default_config with
    fsync = Rdt_store.Log_store.Never;
    auto_compact = false;
    segment_target_bytes = 64 * 1024 * 1024;
  }

(* [store_dir] must be a fresh directory for durable workloads. *)
let config w ~seed ~store_dir =
  {
    Sim_config.default with
    n = w.n;
    seed;
    duration = w.duration;
    shards = w.shards;
    protocol = w.protocol;
    gc = Sim_config.Local;
    ckpt_bytes = w.ckpt_bytes;
    faults = faults ~seed ~n:w.n ~duration:w.duration w.faults;
    store =
      (if w.durable then
         Sim_config.Durable { dir = store_dir; config = store_config }
       else Sim_config.Memory);
  }
