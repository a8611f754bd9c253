(** Protocol vocabulary shared by the client and server transaction
    managers: the five algorithms of paper §2, the client/server message
    types, and transaction-id helpers. *)

(** Client caching mode (§2): intra-transaction caching invalidates the
    whole cache on every transaction boundary; inter-transaction caching
    keeps pages and validates them on access. *)
type caching = Intra | Inter

(** How the server propagates committed updates under no-wait locking with
    notification (§2.5): push the new page image, or just invalidate. *)
type notify_mode = Push | Invalidate

(** The five §2 algorithms (plus the intra-caching variants used by the §4
    verification experiments, and the invalidation ablation). *)
type algorithm =
  | Two_phase of caching  (** §2.1 two-phase locking *)
  | Certification of caching  (** §2.2 certification (optimistic) *)
  | Callback  (** §2.3 callback locking (retained read locks) *)
  | No_wait of { notify : notify_mode option }
      (** §2.4 no-wait locking; [Some mode] adds §2.5 notification *)

val algorithm_name : algorithm -> string

(** All algorithms compared in §5 experiments: 2PL(inter), callback,
    no-wait, no-wait+notify. *)
val section5_algorithms : algorithm list

(** Does the algorithm use inter-transaction caching? *)
val inter_caching : algorithm -> bool

(** Lock flavour requested by a client operation. *)
type lock_kind = Read | Write

(** Callback locking (§2.3): the lock a client keeps on a page its
    transaction updated once the transaction commits — a write lock under
    the retain-writes extension, else a read lock.  The server's lock
    table and the client's retained set both follow this rule. *)
val callback_retained : retain_writes:bool -> lock_kind

(** A page reference in a fetch/validate request: [cached_version] is the
    version of the client's cached copy, or [None] on a cache miss. *)
type fetch_page = { page : int; cached_version : int option }

(** Client-to-server messages. *)
type c2s =
  | Fetch of {
      client : int;
      xid : int;
      req : int;
          (** per-client request sequence number, echoed by the reply so
              retried requests and duplicate replies pair up; 0 when fault
              injection is off *)
      mode : lock_kind;
      pages : fetch_page list;
      no_wait : bool;
          (** [true]: the client is not blocked; the server stays silent on
              success and aborts the transaction on failure (§2.4) *)
    }
  | Cert_read of { client : int; xid : int; req : int; pages : fetch_page list }
  | Commit of {
      client : int;
      xid : int;
      req : int;
      read_set : (int * int) list;
          (** certification only: (page, version-read) to validate *)
      update_pages : int list;  (** dirty page images carried along *)
      release_pages : int list;
          (** callback locking: pages whose locks the client gives up
              entirely (deferred callbacks honoured at commit) *)
    }
  | Callback_reply of { client : int; page : int }
      (** client releases the called-back lock *)
  | Release_retained of { client : int; pages : int list }
      (** client evicted clean pages that had retained locks *)
  | Recovered of { client : int }
      (** the client rebooted with a cold cache: the server must abort its
          in-flight transaction and free every lock it held *)
  | Prepare of {
      client : int;
      xid : int;
      req : int;
      decider : int;
          (** shard whose durable commit record is the commit point *)
      read_set : (int * int) list;
      update_pages : int list;
      release_pages : int list;
    }
      (** 2PC phase one (sharded topologies): this shard's slice of the
          commit.  The shard validates, force-logs updates plus a prepare
          record, and answers with a [Vote]. *)
  | Decision of { client : int; xid : int; req : int; commit : bool }
      (** 2PC phase two: apply or abort the prepared transaction *)
  | Outcome_query of { shard : int; xid : int }
      (** shard-to-shard termination protocol: participant [shard] holds an
          in-doubt prepared transaction and asks the decider for the
          outcome; the decider answers with a [Decision] (presumed abort
          when it has no durable commit record) *)

(** Server-to-client messages. *)
type s2c =
  | Fetch_reply of { xid : int; req : int; data : (int * int) list }
      (** locks granted; (page, version) images for the stale/missing
          subset — pages whose cached copies were valid carry no data *)
  | Cert_reply of { xid : int; req : int; data : (int * int) list }
  | Commit_reply of {
      xid : int;
      req : int;
      ok : bool;
      new_versions : (int * int) list;  (** versions of our installed updates *)
      stale_pages : int list;  (** failed certification: drop these *)
    }
  | Aborted of { xid : int; stale_pages : int list }
      (** asynchronous abort: deadlock victim or no-wait stale read *)
  | Callback_request of { page : int }
      (** please release your (retained) lock on [page] *)
  | Update_push of { page : int; version : int }
      (** notification carrying the committed page image *)
  | Invalidate_page of { page : int }  (** notification without data *)
  | Server_restart of { epoch : int }
      (** the server crashed and recovered; its lock table, callback
          registrations and buffer pool are gone.  Clients run their
          per-protocol reconstruction on first sight of a new epoch *)
  | Vote of {
      xid : int;
      req : int;
      shard : int;
      ok : bool;
      stale_pages : int list;
    }
      (** 2PC: participant's vote on a [Prepare]; consumed by the
          client-side router, never by the client transaction loop *)
  | Decision_ack of {
      xid : int;
      req : int;
      shard : int;
      committed : bool;
      new_versions : (int * int) list;
    }
      (** 2PC: participant applied a [Decision]; [new_versions] is its
          slice of installed versions on commit *)

(** [make_xid ~client ~seq] packs a client id and a per-client attempt
    counter into a globally unique transaction id. *)
val make_xid : client:int -> seq:int -> int

val xid_client : int -> int

(** Originating client of any client-to-server message, or [-1] for
    shard-to-shard messages ([Outcome_query]). *)
val c2s_client : c2s -> int

(** The transaction a client-to-server message is about; [-1] for
    messages not bound to one (callback replies, retained-lock releases,
    reboots). *)
val c2s_xid : c2s -> int

(** Stable lower-case kind tags ("fetch", "commit_reply", ...) for
    causal trace contexts and per-kind network accounting. *)
val c2s_kind : c2s -> string

val s2c_kind : s2c -> string

(** The transaction a server-to-client message is about; [-1] for
    messages not bound to one (callbacks, notifications, restarts). *)
val s2c_xid : s2c -> int

(** Message sizes, for packetization: a data-free message costs
    [control_msg_bytes]; each carried page adds [page_size]. *)
val c2s_bytes : control:int -> page_size:int -> c2s -> int

val s2c_bytes : control:int -> page_size:int -> s2c -> int

(** {1 Endpoints}

    A CPU endpoint: the facility messages are charged against and its
    speed.  Built by the simulator and shared with both sides. *)

type port = { cpu : Sim.Facility.t; mips : float }
