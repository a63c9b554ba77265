#include "server/gpu_shard.hh" // forwarding header (krisp_server)
