// flood_client — submit jobs to a running flood_server.
//
// `flood_client --help` lists the operations and flags.
//
// Exit status: 0 on result/pong/stats, 3 when the terminal frame is an
// error or rejection, 1 on connection problems, 2 on usage errors.
#include <cstdint>
#include <iostream>
#include <string>

#include "ldcf/common/options.hpp"
#include "ldcf/serve/client.hpp"

int main(int argc, char** argv) {
  ldcf::serve::Endpoint endpoint;
  std::uint32_t port = endpoint.port;
  std::string op;
  std::string config_json;

  ldcf::common::OptionTable cli("flood_client",
                                "Ping, query or submit to a flood_server.");
  const auto operation = ldcf::common::Knob("", "operation")
                             .one_of({"ping", "stats", "submit"});
  cli.add("--host", &endpoint.host, {"ADDR", "server IPv4 address"})
      .add("--port", &port,
           ldcf::common::Knob("N", "server TCP port").at_most(65535))
      .add("--unix", &endpoint.unix_path, {"PATH", "server Unix socket"})
      .positional("OP", &op, operation, true)
      .positional("JSON", &config_json,
                  {"", "submit's job config, e.g. '{\"reps\":4}'"}, false);
  cli.parse_or_exit(argc, argv);
  endpoint.port = static_cast<std::uint16_t>(port);
  if ((op == "submit") != cli.seen("JSON")) {
    cli.usage_error("submit takes a JSON config; ping and stats take none");
  }
  if (endpoint.unix_path.empty() && endpoint.port == 0) {
    cli.usage_error("--port (or --unix) is required");
  }

  try {
    ldcf::serve::FloodClient client(endpoint);
    if (op == "ping" || op == "stats") {
      const std::string raw = client.request_raw("{\"op\":\"" + op + "\"}");
      const ldcf::obs::JsonPtr reply = ldcf::obs::parse_json(raw);
      const std::string expect = op == "ping" ? "pong" : "stats";
      if (reply->str("type") != expect) {
        std::cerr << "flood_client: unexpected reply type '"
                  << reply->str("type") << "'\n";
        return 3;
      }
      std::cout << raw << "\n";
      return 0;
    }

    std::string terminal_type;
    const std::string raw = client.submit_raw(
        config_json,
        [&](const std::string& frame_raw, const ldcf::obs::JsonValue& frame) {
          const std::string type = frame.str("type");
          if (type == "result" || type == "error" || type == "rejected") {
            terminal_type = type;
          } else {
            std::cerr << frame_raw << "\n";
          }
        });
    std::cout << raw << "\n";
    return terminal_type == "result" ? 0 : 3;
  } catch (const std::exception& e) {
    std::cerr << "flood_client: " << e.what() << "\n";
    return 1;
  }
}
