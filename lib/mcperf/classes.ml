type storage_constraint = Sc_none | Sc_uniform | Sc_per_node
type replica_constraint = Rc_none | Rc_uniform | Rc_per_object
type history = All_intervals | Window of int
type timing = Proactive | Reactive

type t = {
  name : string;
  storage : storage_constraint;
  replicas : replica_constraint;
  routing : Topology.System.routing;
  knowledge : Topology.System.knowledge;
  history : history;
  timing : timing;
  intra_interval : bool;
}

let general =
  {
    name = "general";
    storage = Sc_none;
    replicas = Rc_none;
    routing = Topology.System.Route_global;
    knowledge = Topology.System.Know_global;
    history = All_intervals;
    timing = Proactive;
    intra_interval = false;
  }

let storage_constrained =
  { general with name = "storage-constrained"; storage = Sc_uniform }

let storage_constrained_per_node =
  {
    general with
    name = "storage-constrained-per-node";
    storage = Sc_per_node;
  }

let replica_constrained =
  { general with name = "replica-constrained"; replicas = Rc_per_object }

let replica_constrained_uniform =
  {
    general with
    name = "replica-constrained-uniform";
    replicas = Rc_uniform;
  }

let decentralized_local_routing =
  {
    general with
    name = "decentralized-local-routing";
    storage = Sc_per_node;
    routing = Topology.System.Route_local;
    knowledge = Topology.System.Know_local;
  }

let caching =
  {
    name = "caching";
    storage = Sc_uniform;
    replicas = Rc_none;
    routing = Topology.System.Route_local;
    knowledge = Topology.System.Know_local;
    history = Window 1;
    timing = Reactive;
    intra_interval = false;
  }

let cooperative_caching =
  {
    caching with
    name = "cooperative-caching";
    routing = Topology.System.Route_global;
    knowledge = Topology.System.Know_global;
  }

let caching_prefetch =
  { caching with name = "caching-prefetch"; timing = Proactive }

let cooperative_caching_prefetch =
  {
    cooperative_caching with
    name = "cooperative-caching-prefetch";
    timing = Proactive;
  }

let reactive_general =
  { general with name = "reactive-general"; timing = Reactive }

let catalogue =
  [
    general;
    storage_constrained;
    storage_constrained_per_node;
    replica_constrained;
    replica_constrained_uniform;
    decentralized_local_routing;
    caching;
    cooperative_caching;
    caching_prefetch;
    cooperative_caching_prefetch;
    reactive_general;
  ]

let allow_intra_interval_reaction c =
  if c.intra_interval then c
  else { c with name = c.name ^ "@access"; intra_interval = true }
