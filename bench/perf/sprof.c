/* A flat SIGPROF sampler, loaded with LD_PRELOAD (see profile.py).

   SPROF_OUT names the output file. The timer asks for one sample per
   millisecond of process CPU time (the kernel rounds that up to its
   tick). Each SIGPROF records the interrupted instruction pointer. At
   exit the file gets one hex address per line, a line "--", then a copy
   of /proc/self/maps so the addresses can be mapped back to the
   executable's symbols. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define INTERVAL_US 1000
#define MAX_SAMPLES (1 << 22)
static unsigned long samples[MAX_SAMPLES];
static volatile unsigned long n_samples;

static void on_prof(int sig, siginfo_t *si, void *uc_) {
  ucontext_t *uc = uc_;
  (void)sig; (void)si;
  if (n_samples >= MAX_SAMPLES) return;
#if defined(__x86_64__)
  samples[n_samples++] = uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  samples[n_samples++] = uc->uc_mcontext.pc;
#endif
}

__attribute__((constructor)) static void sprof_start(void) {
  struct sigaction sa = {0};
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval it = {{0, INTERVAL_US}, {0, INTERVAL_US}};
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void sprof_stop(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  const char *path = getenv("SPROF_OUT");
  FILE *out = path ? fopen(path, "w") : NULL, *maps = fopen("/proc/self/maps", "r");
  if (!out || !maps) return;
  for (unsigned long i = 0; i < n_samples; i++) fprintf(out, "%lx\n", samples[i]);
  fputs("--\n", out);
  int c;
  while ((c = fgetc(maps)) != EOF) fputc(c, out);
  fclose(maps);
  fclose(out);
}
