type t = {
  n_clients : int;
  n_client_cpus : int;
  client_mips : float;
  n_server_cpus : int;
  server_mips : float;
  n_data_disks : int;
  n_log_disks : int;
  cache_size : int;
  buffer_size : int;
  page_size : int;
  init_disk_inst : int;
  server_proc_inst : int;
  client_proc_inst : int;
  mpl : int;
  disk : Storage.Disk.params;
  net : Net.Network.params;
  control_msg_bytes : int;
  stale_drop_all : bool;
  restart_policy : restart_policy;
  callback_grace : float;
  callback_retain_writes : bool;
  notify_updates : Proto.notify_mode option;
}

and restart_policy = Adaptive | Fixed of float | Immediate

let table5 ?(n_clients = 10) () =
  {
    n_clients;
    n_client_cpus = 1;
    client_mips = 1.0;
    n_server_cpus = 1;
    server_mips = 2.0;
    n_data_disks = 2;
    n_log_disks = 1;
    cache_size = 100;
    buffer_size = 400;
    page_size = 4096;
    init_disk_inst = 5_000;
    server_proc_inst = 10_000;
    client_proc_inst = 20_000;
    mpl = 50;
    disk = { Storage.Disk.seek_low = 0.0; seek_high = 0.044; transfer_time = 0.002 };
    net = { Net.Network.net_delay = 0.002; packet_size = 4096; msg_inst = 5_000 };
    control_msg_bytes = 256;
    stale_drop_all = true;
    restart_policy = Adaptive;
    callback_grace = 0.05;
    callback_retain_writes = false;
    notify_updates = None;
  }

let fast_server ?n_clients () = { (table5 ?n_clients ()) with server_mips = 20.0 }

let fast_server_fast_net ?n_clients () =
  let base = fast_server ?n_clients () in
  { base with net = { base.net with Net.Network.net_delay = 0.0 } }

let table4 ~mpl =
  {
    n_clients = 200;
    n_client_cpus = 1;
    client_mips = 1.0;
    n_server_cpus = 1;
    server_mips = 1.0;
    n_data_disks = 2;
    n_log_disks = 0;
    cache_size = 12;
    buffer_size = 1;
    page_size = 4096;
    init_disk_inst = 0;
    server_proc_inst = 15_000;
    client_proc_inst = 0;
    mpl;
    disk = { Storage.Disk.seek_low = 0.035; seek_high = 0.035; transfer_time = 0.0 };
    net = { Net.Network.net_delay = 0.0; packet_size = 4096; msg_inst = 0 };
    control_msg_bytes = 256;
    stale_drop_all = true;
    restart_policy = Adaptive;
    callback_grace = 0.05;
    callback_retain_writes = false;
    notify_updates = None;
  }

let cpu_seconds ~mips inst =
  if inst <= 0 then 0.0 else float_of_int inst /. (mips *. 1e6)

let validate t =
  if t.n_clients <= 0 then invalid_arg "Sys_params: n_clients <= 0";
  if t.n_client_cpus <= 0 || t.n_server_cpus <= 0 then
    invalid_arg "Sys_params: cpu count <= 0";
  if t.client_mips <= 0.0 || t.server_mips <= 0.0 then
    invalid_arg "Sys_params: mips <= 0";
  if t.n_data_disks <= 0 then invalid_arg "Sys_params: n_data_disks <= 0";
  if t.n_log_disks < 0 then invalid_arg "Sys_params: n_log_disks < 0";
  if t.cache_size <= 0 || t.buffer_size <= 0 then
    invalid_arg "Sys_params: cache or buffer size <= 0";
  if t.page_size <= 0 then invalid_arg "Sys_params: page_size <= 0";
  if t.mpl <= 0 then invalid_arg "Sys_params: mpl <= 0"
