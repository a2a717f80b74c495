"""The repository's single performance benchmark (see ``run.py``).

Every module here measures the ``repro`` package from outside: the
simulated workloads drive the EXT5 pipeline through its public pieces,
the ``serve`` workload drives the HTTP service in a child process, and
the traced run wraps public functions at run time.  No program file is
modified.
"""
