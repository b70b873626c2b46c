#include "net/message.hpp"

namespace dam::net {

std::size_t encoded_size(const Message& msg) {
  // Header: kind(1) + from(4) + to(4) + send round(8).
  std::size_t size = 17;
  switch (msg.kind) {
    case MsgKind::kEvent:
      size += 4 + 4 + 4 + 1 + 4 + msg.payload.size();
      break;
    case MsgKind::kReqContact:
      size += 4 + 4 + 4 + 4 + 4 * msg.init_msg.size();
      break;
    case MsgKind::kAnsContact:
    case MsgKind::kNewProcessGive:
      size += 4 + 4 + 4 * msg.processes.size();
      break;
    case MsgKind::kNewProcessAsk:
      break;
    case MsgKind::kMembership:
      size += 4 + 4 + 4 * msg.processes.size() + 1;
      if (msg.piggyback_topic) {
        size += 4 + 4 + 4 * msg.piggyback_super_table.size();
      }
      size += 4 + 8 * msg.event_ids.size();
      break;
    case MsgKind::kEventRequest:
      size += 4 + 8 * msg.event_ids.size();
      break;
  }
  return size;
}

}  // namespace dam::net
