let cpu_seconds (port : Proto.port) inst =
  Sys_params.cpu_seconds ~mips:port.Proto.mips inst

let use_cpu port inst =
  if inst > 0 then Sim.Facility.use port.Proto.cpu (cpu_seconds port inst)

let send ?tag net ~msg_inst ~src ~dst ~bytes ~deliver =
  let pkts = Net.Network.packets_for net ~bytes in
  let inst = msg_inst * pkts in
  use_cpu src inst;
  Net.Network.post ?tag net ~bytes ~deliver:(fun ctx ->
      if inst > 0 then
        Sim.Facility.submit dst.Proto.cpu ~service:(cpu_seconds dst inst)
          (fun () -> deliver ctx)
      else deliver ctx)

let post net (cfg : Sys_params.t) ~src ~src_ep ~dst ~dst_ep ~parent ~retry ~xid
    ~owner ~kind ~bytes deliver =
  let tag =
    {
      Obs.Causal.tg_parent = parent;
      tg_xid = xid;
      tg_owner = owner;
      tg_kind = kind;
      tg_src = src_ep;
      tg_dst = dst_ep;
      tg_retry = retry;
    }
  in
  send ~tag net ~msg_inst:cfg.net.Net.Network.msg_inst ~src ~dst ~bytes ~deliver
