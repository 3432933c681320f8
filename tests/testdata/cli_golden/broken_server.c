// A target version that does not parse (the return lacks its ';'): the
// --matrix golden case pins how a version that fails to load is reported.
int worker_threads = 4;
int handle_config_line(char *key, char *value) {
  return 0
}
