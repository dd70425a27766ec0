import gc

# What cli loads (yaml, argparse, json) lives until exit; console_main freezes
# it and turns the collector back on.
gc.disable()
from .cli import console_main

console_main()
